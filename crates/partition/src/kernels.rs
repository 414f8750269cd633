//! Shared k-way placement kernels (DESIGN.md §13).
//!
//! Every greedy streaming heuristic in the paper ends in the same inner
//! loop: scan the k partitions, keep the best score under the `1e-12`
//! epsilon tie discipline, and prefer the lighter partition on ties.
//! LDG, FENNEL and HDRF each used to carry a private copy of that fold;
//! this module hoists it into one struct-of-arrays scan over dense
//! score/load slices so the hot path is a single branch-predictable,
//! allocation-free pass the compiler can vectorize.
//!
//! Bit-identity contract: [`epsilon_argmax`] performs exactly the float
//! comparisons of the historical per-algorithm loops — strictly better
//! means `score > best + 1e-12`; a tie means `|score − best| ≤ 1e-12`
//! and breaks toward the smaller load (counting the tie-break), then
//! toward the lower index via the ascending scan order. [`SKIP`]
//! (negative infinity) marks a capacity-saturated partition; a finite
//! score never compares as a tie against it, which is also why seeding
//! the fold with negative infinity (HDRF's historical form) and seeding
//! it with "no candidate yet" (LDG/FENNEL's historical form) pick the
//! same winner.
#![expect(
    clippy::indexing_slicing,
    reason = "shared scoring kernels are called with candidate indices iterated from the scratch table's own length"
)]

use crate::assignment::PartitionId;
use crate::decisions::WorkStats;
use crate::edge_cut::{VertexStreamState, UNASSIGNED};

/// Epsilon of every score tie comparison in the placement loops.
pub(crate) const SCORE_EPSILON: f64 = 1e-12;

/// Sentinel score excluding a partition from [`epsilon_argmax`]
/// (capacity-saturated in LDG/FENNEL terms).
pub(crate) const SKIP: f64 = f64::NEG_INFINITY;

/// The shared k-way argmax over a dense score column: the highest score
/// wins, epsilon ties break to the smaller `loads` entry (bumping
/// `tiebreaks`), remaining ties to the lower index. Entries equal to
/// [`SKIP`] never win; returns `None` iff every entry is skipped.
pub(crate) fn epsilon_argmax(
    scores: &[f64],
    loads: &[usize],
    tiebreaks: &mut u64,
) -> Option<usize> {
    debug_assert_eq!(scores.len(), loads.len(), "score/load columns must align");
    let mut best: Option<usize> = None;
    let mut best_score = SKIP;
    for (i, &score) in scores.iter().enumerate() {
        if score == SKIP {
            continue;
        }
        match best {
            None => {
                best = Some(i);
                best_score = score;
            }
            Some(b) => {
                if score > best_score + SCORE_EPSILON {
                    best = Some(i);
                    best_score = score;
                } else if (score - best_score).abs() <= SCORE_EPSILON && loads[i] < loads[b] {
                    *tiebreaks += 1;
                    best = Some(i);
                    best_score = score;
                }
            }
        }
    }
    best
}

/// A k-sized memo of a score term that depends on a partition's load
/// alone (FENNEL's `α·γ·|P_i|^(γ−1)`): entry `i` is recomputed only when
/// the load it is asked for differs from the one it last saw, so a
/// placement that moves at most two loads costs at most two evaluations
/// instead of k. Keyed on the load it reads, never filled ahead, so it
/// stays correct under loader merges, restream passes and snapshot
/// restore; it is derived state and never enters a snapshot.
#[derive(Debug, Clone)]
pub(crate) struct LoadTermMemo {
    load: Vec<u64>,
    term: Vec<f64>,
}

impl LoadTermMemo {
    /// An empty memo for `k` partitions (no load is `u64::MAX`).
    pub(crate) fn new(k: usize) -> Self {
        LoadTermMemo { load: vec![u64::MAX; k], term: vec![0.0; k] }
    }

    /// `term(load)` for partition `i`, evaluated only if `load` changed
    /// since partition `i` was last asked — the same `f64` bits either way.
    #[inline]
    pub(crate) fn get(&mut self, i: usize, load: u64, term: impl FnOnce(u64) -> f64) -> f64 {
        if self.load[i] != load {
            self.load[i] = load;
            self.term[i] = term(load);
        }
        self.term[i]
    }
}

/// The score of a below-capacity partition holding no placed neighbour,
/// as a function of its load: the floor every candidate must clear for
/// [`CandidateFold`] to skip the full fold (DESIGN.md §13, "Candidate
/// fold").
#[derive(Debug, Clone, Copy)]
pub(crate) enum Band {
    /// Every such partition scores exactly this (LDG's `+0.0`; FENNEL
    /// with γ = 1 or α = 0).
    Constant(f64),
    /// The lightest such partition scores this, and scores at different
    /// loads in play differ by more than ε ([`SeparatedLoads`]).
    Separated(f64),
}

/// A vertex-stream score rule the candidate fold can evaluate sparsely.
pub(crate) trait NeighbourScore {
    /// The score of below-capacity partition `i` at `load` holding
    /// `neighbours` placed neighbours, bit-equal to the dense column entry.
    fn score(&mut self, i: usize, neighbours: usize, load: usize) -> f64;

    /// The band over `loads` (below capacity iff `< below`, and at least
    /// one is), or `None` when it is neither constant nor separated there.
    fn band(&mut self, loads: &[usize], below: usize) -> Option<Band>;
}

/// LDG's and FENNEL's placement fold over the partitions a record's
/// placed neighbours sit in, falling back to the dense k-way
/// [`epsilon_argmax`] when that could pick differently.
///
/// The neighbour term of both rules is zero off those partitions, so
/// there every score is the [`Band`]'s function of load. When (1) some
/// candidate is below capacity, (2) every below-capacity candidate beats
/// the band by more than ε, and (3) the band is [`Band::Constant`] or
/// [`Band::Separated`], no non-candidate can win, tie with, or displace
/// a candidate in the dense scan, and the only ties it breaks outside the
/// candidates are among the equal-scored partitions indexed before the
/// first candidate. Winner and tie count are then those of the dense
/// fold, computed from ≤ deg scores instead of k.
#[derive(Debug, Clone)]
pub(crate) struct CandidateFold {
    /// `load < below` ⟺ `!(load as f64 >= capacity)`, `below = ⌈C⌉`.
    below: usize,
    /// Placed neighbours per partition; all zero between records.
    counts: Vec<usize>,
    /// The partitions with a nonzero count, ascending once gathered.
    touched: Vec<usize>,
    /// Score column: aligned with `touched` on the candidate fold,
    /// k-long on the full fold.
    scores: Vec<f64>,
    /// Loads aligned with `touched` for the candidate fold.
    loads: Vec<usize>,
    /// Exact work counters (derived; never snapshotted).
    pub(crate) work: WorkStats,
}

impl CandidateFold {
    /// An empty fold for `k` partitions of capacity `capacity` (≥ 1; +∞
    /// saturates `below` to `usize::MAX`, keeping every load below it).
    pub(crate) fn new(k: usize, capacity: f64) -> Self {
        CandidateFold {
            below: capacity.ceil() as usize,
            counts: vec![0; k],
            touched: Vec::new(),
            scores: Vec::new(),
            loads: Vec::new(),
            work: WorkStats::default(),
        }
    }

    /// The dense fold's pick for `neighbors` against `state` under
    /// `rule` (`None` iff every partition is at capacity), adding its
    /// tie count to `tiebreaks`.
    pub(crate) fn place<R: NeighbourScore>(
        &mut self,
        neighbors: &[u32],
        state: &VertexStreamState,
        rule: &mut R,
        tiebreaks: &mut u64,
    ) -> Option<usize> {
        for &w in neighbors {
            let p = state.assignment[w as usize];
            if p != UNASSIGNED {
                let p = p as usize;
                if self.counts[p] == 0 {
                    self.touched.push(p);
                }
                self.counts[p] += 1;
            }
        }
        self.touched.sort_unstable();
        let sizes = &state.sizes;
        let picked = match self.candidate_argmax(sizes, rule, tiebreaks) {
            Some(i) => Some(i),
            None => self.full_argmax(sizes, rule, tiebreaks),
        };
        for &p in &self.touched {
            self.counts[p] = 0;
        }
        self.touched.clear();
        picked
    }

    /// The candidate fold proper: `None` when a guard fails.
    fn candidate_argmax<R: NeighbourScore>(
        &mut self,
        sizes: &[usize],
        rule: &mut R,
        tiebreaks: &mut u64,
    ) -> Option<usize> {
        let below = self.below;
        let first = self.touched.iter().position(|&p| sizes[p] < below)?;
        let band = rule.band(sizes, below)?;
        let floor = match band {
            Band::Constant(score) | Band::Separated(score) => score,
        };
        if !floor.is_finite() {
            return None;
        }
        self.scores.clear();
        self.loads.clear();
        for &p in &self.touched[first..] {
            let load = sizes[p];
            let score = if load < below {
                self.work.score_evals += 1;
                let score = rule.score(p, self.counts[p], load);
                // Both of the dense fold's comparisons, so that no
                // non-candidate beats or ε-ties a candidate.
                if !(score > floor + SCORE_EPSILON && score - floor > SCORE_EPSILON) {
                    return None;
                }
                score
            } else {
                SKIP
            };
            self.scores.push(score);
            self.loads.push(load);
        }
        let mut ties = 0;
        let best = epsilon_argmax(&self.scores, &self.loads, &mut ties)?;
        if let Band::Constant(_) = band {
            let c0 = self.touched[first];
            ties += equal_score_tiebreaks(&sizes[..c0], below);
        }
        *tiebreaks += ties;
        Some(self.touched[first + best])
    }

    /// The dense k-way fold, with `counts` as the neighbour histogram.
    fn full_argmax<R: NeighbourScore>(
        &mut self,
        sizes: &[usize],
        rule: &mut R,
        tiebreaks: &mut u64,
    ) -> Option<usize> {
        self.work.full_folds += 1;
        self.scores.clear();
        for (i, &load) in sizes.iter().enumerate() {
            self.scores.push(if load < self.below {
                self.work.score_evals += 1;
                rule.score(i, self.counts[i], load)
            } else {
                SKIP
            });
        }
        epsilon_argmax(&self.scores, sizes, tiebreaks)
    }
}

/// The ties [`epsilon_argmax`] breaks scanning partitions that all score
/// the same: one per strict new minimum of the below-capacity loads
/// after the first (a ≥-capacity entry is a [`SKIP`]).
fn equal_score_tiebreaks(loads: &[usize], below: usize) -> u64 {
    let (mut min, mut minima) = (below, 0u64);
    for &load in loads {
        if load < min {
            min = load;
            minima += 1;
        }
    }
    minima.saturating_sub(1)
}

/// `(index, load)` of the lightest below-capacity partition (ties → lower
/// index) and the heaviest below-capacity load, or `None` if every
/// partition is at capacity.
pub(crate) fn below_capacity_range(loads: &[usize], below: usize) -> Option<(usize, usize, usize)> {
    let min = loads.iter().copied().min().filter(|&min| min < below)?;
    let lightest = loads.iter().position(|&load| load == min)?;
    let max = loads.iter().copied().filter(|&load| load < below).max()?;
    Some((lightest, min, max))
}

/// A memo of the loads over which a load-only score falls by more than
/// ε per unit step, for [`Band::Separated`]: every adjacent pair in
/// `lo..=hi` was checked, each check at most once while the range only
/// grows. Like [`LoadTermMemo`] it is derived state, never snapshotted.
#[derive(Debug, Clone)]
pub(crate) struct SeparatedLoads {
    lo: usize,
    hi: usize,
    /// A load whose score is within ε of the next load's.
    flat: Option<usize>,
}

impl SeparatedLoads {
    /// An empty memo (`lo > hi`).
    pub(crate) fn new() -> Self {
        SeparatedLoads { lo: 1, hi: 0, flat: None }
    }

    /// Whether `score(l) − score(l + 1) > ε` for every `l` in `min..max`.
    /// Then scores at loads in `min..=max` fall strictly with load, and
    /// any two at different loads differ by more than ε (float
    /// subtraction is monotone in each operand).
    pub(crate) fn covers(
        &mut self,
        min: usize,
        max: usize,
        mut score: impl FnMut(usize) -> f64,
    ) -> bool {
        if self.flat.is_some_and(|flat| min <= flat && flat < max) {
            return false;
        }
        if self.lo <= min && max <= self.hi {
            return true;
        }
        if self.lo > max || self.hi < min {
            (self.lo, self.hi) = (min, min);
        }
        let mut separated = |l: usize| score(l) - score(l + 1) > SCORE_EPSILON;
        while self.lo > min {
            if !separated(self.lo - 1) {
                self.flat = Some(self.lo - 1);
                return false;
            }
            self.lo -= 1;
        }
        while self.hi < max {
            if !separated(self.hi) {
                self.flat = Some(self.hi);
                return false;
            }
            self.hi += 1;
        }
        true
    }
}

/// Index of the smallest load (ties → lower index): the strict-improve
/// ascending scan form of `min_by_key`, shared by the capacity
/// fallbacks of the vertex-stream heuristics.
pub(crate) fn argmin_load(loads: &[usize]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &load) in loads.iter().enumerate() {
        match best {
            Some(b) if loads[b] <= load => {}
            _ => best = Some(i),
        }
    }
    best
}

/// Least-loaded candidate under the `(loads[p], p)` key — the greedy
/// vertex-cut tie discipline — over any candidate iterator (a
/// precomputed constrained set, or a replica bitset scan). `None` iff
/// the iterator is empty.
pub(crate) fn least_loaded_among<I>(candidates: I, loads: &[usize]) -> Option<PartitionId>
where
    I: IntoIterator<Item = PartitionId>,
{
    let mut best: Option<(usize, PartitionId)> = None;
    for p in candidates {
        let key = (loads[p as usize], p);
        match best {
            Some(b) if b <= key => {}
            _ => best = Some(key),
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: the historical Option-seeded fold LDG
    /// and FENNEL carried (capacity skip expressed as SKIP entries).
    fn reference_argmax(scores: &[f64], loads: &[usize]) -> (Option<usize>, u64) {
        let mut tiebreaks = 0u64;
        let mut best: Option<(f64, usize, usize)> = None;
        for (i, &score) in scores.iter().enumerate() {
            if score == SKIP {
                continue;
            }
            let candidate = (score, loads[i], i);
            best = Some(match best {
                None => candidate,
                Some(b) => {
                    if score > b.0 + SCORE_EPSILON {
                        candidate
                    } else if (score - b.0).abs() <= SCORE_EPSILON && loads[i] < b.1 {
                        tiebreaks += 1;
                        candidate
                    } else {
                        b
                    }
                }
            });
        }
        (best.map(|(_, _, i)| i), tiebreaks)
    }

    #[test]
    fn kernel_matches_the_historical_fold_on_grids() {
        let score_values = [-1.0, 0.0, 0.5, 0.5 + 5e-13, 1.0, SKIP];
        let load_values = [0usize, 1, 2];
        for &s0 in &score_values {
            for &s1 in &score_values {
                for &s2 in &score_values {
                    for &l0 in &load_values {
                        for &l1 in &load_values {
                            for &l2 in &load_values {
                                let scores = [s0, s1, s2];
                                let loads = [l0, l1, l2];
                                let mut ties = 0u64;
                                let got = epsilon_argmax(&scores, &loads, &mut ties);
                                let (want, want_ties) = reference_argmax(&scores, &loads);
                                assert_eq!(got, want, "scores {scores:?} loads {loads:?}");
                                assert_eq!(ties, want_ties, "scores {scores:?} loads {loads:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// A score column behind [`NeighbourScore`]: candidates score what
    /// the column says; the band is `f` of load, constant or checked by
    /// the production [`SeparatedLoads`].
    struct ColumnRule<'a> {
        column: &'a [f64],
        f: fn(usize) -> f64,
        constant: bool,
        separated: &'a mut SeparatedLoads,
    }

    impl NeighbourScore for ColumnRule<'_> {
        fn score(&mut self, i: usize, _neighbours: usize, _load: usize) -> f64 {
            self.column[i]
        }

        fn band(&mut self, loads: &[usize], below: usize) -> Option<Band> {
            if self.constant {
                return Some(Band::Constant((self.f)(0)));
            }
            let (_, min, max) = below_capacity_range(loads, below)?;
            if !self.separated.covers(min, max, self.f) {
                return None;
            }
            Some(Band::Separated((self.f)(min)))
        }
    }

    #[test]
    fn candidate_fold_matches_the_dense_fold_on_every_small_column() {
        // Capacity 2: loads 0 and 1 are below it, load 2 is a SKIP entry.
        const BELOW: usize = 2;
        let eps = SCORE_EPSILON;
        // (band as a function of load, constant?): LDG's +0.0, FENNEL's
        // γ = 1 band at two magnitudes, a separated band, and a flat one
        // (0 → 1 within ε). At −6e-13 a score just above `band + ε`
        // still has `score − band` round to ε, which only guard 2's
        // second comparison sees.
        type Shape = (fn(usize) -> f64, bool);
        let shapes: [Shape; 5] = [
            (|_| 0.0, true),
            (|_| -1.5, true),
            (|_| -6e-13, true),
            (|l| -0.25 * l as f64, false),
            (|l| -0.5e-12 * l as f64, false),
        ];
        // A candidate's score over the band: just inside ε, at ε, just
        // outside ε, and two well above it within ε of each other.
        let offsets: [fn(f64) -> f64; 5] = [
            |floor| floor + 0.5e-12,
            |floor| floor + SCORE_EPSILON,
            |floor| (floor + SCORE_EPSILON).next_up(),
            |floor| floor + 1.0,
            |floor| floor + 1.0 + 0.5e-12,
        ];
        // Per partition: a below-capacity load × {no neighbour, a
        // candidate at each offset}, or at capacity with or without one.
        const STATES: usize = 2 * 6 + 2;
        let (mut fast, mut prefix_ties, mut fallbacks) = (0u64, 0u64, 0u64);
        let (mut neighbors, mut roles, mut column) = (Vec::new(), Vec::new(), Vec::new());
        for (f, constant) in shapes {
            let mut separated = SeparatedLoads::new();
            for k in 1..=5usize {
                let mut fold = CandidateFold::new(k, BELOW as f64);
                let mut state = VertexStreamState::new(k, k);
                for (v, owner) in state.assignment.iter_mut().enumerate() {
                    *owner = v as PartitionId;
                }
                for code in 0..STATES.pow(k as u32) {
                    neighbors.clear();
                    roles.clear();
                    let mut c = code;
                    for i in 0..k {
                        let s = c % STATES;
                        c /= STATES;
                        let (load, role) = if s < 12 { (s / 6, s % 6) } else { (BELOW, s - 12) };
                        state.sizes[i] = load;
                        roles.push(role);
                        if role > 0 {
                            neighbors.push(i as u32);
                        }
                    }
                    let loads = &state.sizes;
                    let min = loads.iter().copied().filter(|&l| l < BELOW).min();
                    let max = loads.iter().copied().filter(|&l| l < BELOW).max();
                    let floor = f(if constant { 0 } else { min.unwrap_or(0) });
                    column.clear();
                    column.extend((0..k).map(|i| match (loads[i] < BELOW, roles[i]) {
                        (false, _) => SKIP,
                        (true, 0) => f(loads[i]),
                        (true, role) => offsets[role - 1](floor),
                    }));

                    // The guards, restated from their definitions.
                    let is_candidate = |i: usize| roles[i] > 0 && loads[i] < BELOW;
                    let band_ok = constant
                        || min
                            .zip(max)
                            .is_some_and(|(lo, hi)| (lo..hi).all(|l| f(l) - f(l + 1) > eps));
                    let all_clear = (0..k)
                        .filter(|&i| is_candidate(i))
                        .all(|i| column[i] > floor + eps && column[i] - floor > eps);
                    let first = (0..k).find(|&i| is_candidate(i));
                    let expect_fast = first.is_some() && band_ok && all_clear;

                    let mut rule =
                        ColumnRule { column: &column, f, constant, separated: &mut separated };
                    let before = fold.work.full_folds;
                    let mut ties = 0;
                    let got = fold.place(&neighbors, &state, &mut rule, &mut ties);
                    let fell_back = fold.work.full_folds > before;
                    let mut want_ties = 0;
                    let want = epsilon_argmax(&column, loads, &mut want_ties);
                    let at = || format!("constant {constant}, loads {loads:?}, roles {roles:?}");
                    assert_eq!(got, want, "winner at {}", at());
                    assert_eq!(ties, want_ties, "tie count at {}", at());
                    assert_eq!(fell_back, !expect_fast, "fallback at {}", at());
                    match first {
                        Some(c0) if !fell_back => {
                            fast += 1;
                            epsilon_argmax(&column[..c0], &loads[..c0], &mut prefix_ties);
                        }
                        _ => fallbacks += 1,
                    }
                }
            }
        }
        // Both paths and the equal-score prefix count were exercised.
        assert!(fast > 100_000 && fallbacks > 100_000, "fast {fast}, fallbacks {fallbacks}");
        assert!(prefix_ties > 1_000, "prefix ties {prefix_ties}");
    }

    #[test]
    fn capacity_test_is_the_integer_ceiling() {
        for capacity in [1.0, 1.5, 2.0, 26.25, 1_680.000_000_1, 1e13 + 0.5, f64::INFINITY] {
            let below = CandidateFold::new(1, capacity).below;
            for load in [0usize, 1, 2, 25, 26, 27, 1680, 1681, 10_000_000_000_000, usize::MAX - 1] {
                let saturated = load as f64 >= capacity;
                assert_eq!(load < below, !saturated, "load {load}, C {capacity}");
            }
        }
    }

    #[test]
    fn separated_loads_checks_each_gap_once_and_remembers_a_flat_one() {
        let mut memo = SeparatedLoads::new();
        let evals = std::cell::Cell::new(0);
        // Steps of 1 up to load 5, then a flat step 5 → 6.
        let mut score = |l: usize| {
            evals.set(evals.get() + 1);
            if l <= 5 {
                -(l as f64)
            } else {
                -5.0 - 1e-13 * (l - 5) as f64
            }
        };
        assert!(memo.covers(2, 4, &mut score));
        assert!(memo.covers(0, 5, &mut score));
        assert!(memo.covers(1, 3, &mut score));
        assert_eq!(evals.get(), 10, "five gaps, two evaluations each, none repeated");
        assert!(!memo.covers(3, 6, &mut score));
        assert!(!memo.covers(0, 7, &mut score));
        assert_eq!(evals.get(), 12, "the flat gap is remembered");
        // One load alone has no gap to check.
        assert!(memo.covers(6, 6, &mut score));
    }

    #[test]
    fn neg_infinity_seed_equals_option_seed() {
        // HDRF's historical fold started from (NEG_INFINITY, 0) with no
        // skip; with all-finite scores the kernel's None seed takes the
        // first entry the same way (finite > −∞ + ε, and the tie branch
        // cannot fire against −∞).
        let scores = [-3.0, -3.0, -5.0];
        let loads = [7, 2, 0];
        let mut ties = 0;
        assert_eq!(epsilon_argmax(&scores, &loads, &mut ties), Some(1));
        assert_eq!(ties, 1, "equal scores break to the lighter load");
    }

    #[test]
    fn all_skipped_returns_none() {
        let mut ties = 0;
        assert_eq!(epsilon_argmax(&[SKIP, SKIP], &[0, 0], &mut ties), None);
        assert_eq!(ties, 0);
    }

    #[test]
    fn load_term_memo_evaluates_once_per_load_change() {
        let mut memo = LoadTermMemo::new(2);
        let mut evals = 0;
        let mut get = |memo: &mut LoadTermMemo, i, load| {
            memo.get(i, load, |l| {
                evals += 1;
                (l as f64).powf(0.5)
            })
        };
        assert_eq!(get(&mut memo, 0, 4), 2.0);
        assert_eq!(get(&mut memo, 0, 4), 2.0);
        assert_eq!(get(&mut memo, 1, 4), 2.0);
        assert_eq!(get(&mut memo, 0, 9), 3.0);
        // A load that moves back is recomputed, not remembered.
        assert_eq!(get(&mut memo, 0, 4), 2.0);
        assert_eq!(evals, 4);
    }

    #[test]
    fn argmin_load_prefers_first_minimum() {
        assert_eq!(argmin_load(&[3, 1, 1, 2]), Some(1));
        assert_eq!(argmin_load(&[]), None);
    }

    #[test]
    fn least_loaded_among_uses_the_load_then_id_key() {
        let loads = [5usize, 3, 3, 9];
        assert_eq!(least_loaded_among([0u32, 2, 1].into_iter(), &loads), Some(1));
        assert_eq!(least_loaded_among(std::iter::empty(), &loads), None);
    }
}
