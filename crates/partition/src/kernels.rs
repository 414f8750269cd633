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

/// The largest score magnitude at which the [`FamilyFold`] runs: below
/// it every Eq. (7) score rounds by less than ε/8 (seven roundings of at
/// most half an ulp of 512 each), so a guard margin of 2ε leaves the
/// dense fold's ε-comparisons no room to disagree.
const FAMILY_FOLD_MAGNITUDE: f64 = 512.0;

/// One entry of the [`FamilyFold`]: the least-loaded partition of a
/// replica family, or an affinity target scored on its own.
#[derive(Debug, Clone, Copy)]
struct FamilyEntry {
    id: PartitionId,
    load: usize,
    /// In `A(u)`, in `A(v)`.
    in_u: bool,
    in_v: bool,
    /// Affinity targets naming this partition (0 for a family entry).
    bonus: u8,
}

/// HDRF's Eq. (7) fold over the replica families (DESIGN.md §13,
/// "Family fold"), shared by HDRF and 2PS's assignment pass.
///
/// For an edge (u, v) every partition falls into one of four families —
/// in neither replica set, in `A(u)` only, in `A(v)` only, in both — and
/// scores `λ·(1 − |e(P_i)|/C)` plus an offset that depends on the family
/// alone. Within a family the score falls strictly with load, so the
/// family's best entry is its least-loaded partition (lowest id on
/// ties): an integer scan over the family's bits. Affinity targets leave
/// their families and are scored as entries of their own. The pick is
/// the highest of those ≤ 6 scores, lowest id on an exact tie.
///
/// That is [`epsilon_argmax`]'s pick over the dense column, with no tie
/// broken, exactly when no two entries with different score expressions
/// come within ε of each other at any loads. [`place`](FamilyFold::place)
/// guards that per edge and returns `None` for the dense fold when it
/// cannot show it.
#[derive(Debug, Clone)]
pub(crate) struct FamilyFold {
    /// HDRF's λ and uniform capacity `C`.
    pub(crate) lambda: f64,
    pub(crate) capacity: f64,
    /// `C/λ`: a score difference measured in load steps of `λ/C`.
    steps: f64,
    /// `2ε·C/λ`: the nearest a pair's offset difference may come to a
    /// whole number of load steps (below 1/2, since `λ/C > 4ε`).
    min_gap: f64,
    /// The heaviest load at which every score stays within
    /// [`FAMILY_FOLD_MAGNITUDE`]; `None` when the fold never runs (`λ/C`
    /// not above 4ε, λ = 0 included, or λ too large).
    load_bound: Option<usize>,
    /// Exact work counters (derived; never snapshotted).
    pub(crate) work: WorkStats,
    entries: Vec<FamilyEntry>,
}

impl FamilyFold {
    /// The fold for HDRF's `lambda` and uniform `capacity`.
    pub(crate) fn new(lambda: f64, capacity: f64) -> Self {
        let step = lambda / capacity;
        // Offsets are at most 5 (the two gains sum to 3, two targets add
        // 2), so scores stay within λ·(1 + load/C) + 6.
        let bound = capacity * ((FAMILY_FOLD_MAGNITUDE - 6.0) / lambda - 1.0);
        let runs = step > 4.0 * SCORE_EPSILON && bound >= 0.0;
        FamilyFold {
            lambda,
            capacity,
            steps: capacity / lambda,
            min_gap: 2.0 * SCORE_EPSILON * capacity / lambda,
            load_bound: runs.then_some(bound as usize),
            work: WorkStats::default(),
            entries: Vec::with_capacity(6),
        }
    }

    /// The dense fold's pick for an edge whose endpoints hold the replica
    /// blocks `bu` and `bv` (one bit per partition), under per-partition
    /// `loads`, gains `[1 + (1 − θ_u), 1 + (1 − θ_v)]` and affinity
    /// `targets` (each `+1.0`; one at or past k is ignored); `None` when
    /// the guard cannot show that the dense fold picks the same partition
    /// and breaks no tie.
    pub(crate) fn place(
        &mut self,
        bu: &[u64],
        bv: &[u64],
        loads: &[usize],
        gains: [f64; 2],
        targets: [Option<PartitionId>; 2],
    ) -> Option<PartitionId> {
        let bound = self.load_bound?;
        let k = loads.len();
        let [t0, t1] = targets.map(|t| t.filter(|&t| (t as usize) < k));
        // Per family, the least load and its lowest id; a family left at
        // `usize::MAX` is empty (or that heavy, which the bound refuses).
        let mut families = [(usize::MAX, 0 as PartitionId); 4];
        let mut heaviest = 0;
        for (w, (&mu, &mv)) in bu.iter().zip(bv).enumerate() {
            let base = w << 6;
            let mut free = if k - base >= 64 { !0 } else { (1u64 << (k - base)) - 1 };
            for t in [t0, t1].into_iter().flatten() {
                if t as usize >> 6 == w {
                    free &= !(1u64 << (t & 63));
                }
            }
            let masks = [free & !(mu | mv), free & mu & !mv, free & mv & !mu, free & mu & mv];
            for (best, mut bits) in families.iter_mut().zip(masks) {
                while bits != 0 {
                    let p = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let load = loads[p];
                    heaviest = heaviest.max(load);
                    if load < best.0 {
                        *best = (load, p as PartitionId);
                    }
                }
            }
        }
        self.entries.clear();
        for (f, (load, id)) in families.into_iter().enumerate() {
            if load != usize::MAX {
                let (in_u, in_v) = (f & 1 == 1, f >= 2);
                self.entries.push(FamilyEntry { id, load, in_u, in_v, bonus: 0 });
            }
        }
        let bit = |block: &[u64], p: PartitionId| (block[p as usize >> 6] >> (p & 63)) & 1 == 1;
        let mut target = |t: PartitionId, bonus: u8| {
            let load = loads[t as usize];
            heaviest = heaviest.max(load);
            let (in_u, in_v) = (bit(bu, t), bit(bv, t));
            self.entries.push(FamilyEntry { id: t, load, in_u, in_v, bonus });
        };
        match (t0, t1) {
            (Some(a), Some(b)) if a == b => target(a, 2),
            _ => [t0, t1].into_iter().flatten().for_each(|t| target(t, 1)),
        }
        if heaviest > bound || !self.separated(gains) {
            return None;
        }
        self.work.score_evals += self.entries.len() as u64;
        let mut pick: Option<(f64, PartitionId)> = None;
        for e in &self.entries {
            let score = self.score(e, gains);
            if pick.is_none_or(|(best, id)| score > best || (score == best && e.id < id)) {
                pick = Some((score, e.id));
            }
        }
        pick.map(|(_, id)| id)
    }

    /// Entry `e`'s score with the dense column's float operations in the
    /// column's order: balance term, `A(u)` gain, `A(v)` gain, targets.
    fn score(&self, e: &FamilyEntry, [gu, gv]: [f64; 2]) -> f64 {
        let mut score = self.lambda * (1.0 - e.load as f64 / self.capacity);
        if e.in_u {
            score += gu;
        }
        if e.in_v {
            score += gv;
        }
        for _ in 0..e.bonus {
            score += 1.0;
        }
        score
    }

    /// Whether every two entries with different score expressions stay
    /// more than ε apart at any loads: their offset difference lies at
    /// least 2ε from every multiple of `λ/C`. Entries share an expression
    /// when they share a family and a bonus, or are `A(u)`-only against
    /// `A(v)`-only when the two gains are the same float. Each distinct
    /// expression's offset is placed on the unit circle of load steps
    /// (offset · C/λ mod 1), and every two points must lie `2ε·C/λ` apart
    /// around it.
    fn separated(&self, [gu, gv]: [f64; 2]) -> bool {
        let one_gain = gu.to_bits() == gv.to_bits();
        let (mut seen, mut at, mut n) = (0u16, [0.0f64; 6], 0);
        for e in &self.entries {
            let family = match (e.in_u, e.in_v) {
                (false, false) => 0,
                (true, false) => 1,
                (false, true) if one_gain => 1,
                (false, true) => 2,
                (true, true) => 3,
            };
            let expression = 1u16 << (3 * family + e.bonus);
            if seen & expression != 0 {
                continue;
            }
            seen |= expression;
            let mut offset = f64::from(e.bonus);
            if e.in_u {
                offset += gu;
            }
            if e.in_v {
                offset += gv;
            }
            let steps = offset * self.steps;
            let here = steps - (steps as u64) as f64;
            for &there in &at[..n] {
                let apart = (here - there).abs();
                if apart.min(1.0 - apart) < self.min_gap {
                    return false;
                }
            }
            at[n] = here;
            n += 1;
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

    /// `(λ, C, d(u) + 1, d(v) + 1)` settings of the family fold grid,
    /// chosen so that offset differences land on, just inside and just
    /// outside multiples of `λ/C` (the loads in play differ by 1, 3 and 4).
    const FAMILY_CONFIGS: [(f64, f64, f64, f64); 11] = [
        // No offset difference near a multiple.
        (1.1, 7.3, 2.0, 5.0),
        // C/λ an integer: a target ties its own family four loads up.
        (1.0, 4.0, 2.0, 5.0),
        // ... and θ_v − θ_u = 1/4 is one load step: A(u) only ties A(v)
        // only one load up.
        (1.0, 4.0, 3.0, 5.0),
        // 3C/λ an integer: both gains (3 together) tie neither family
        // four loads up.
        (1.5, 2.0, 2.0, 5.0),
        // d(u) = d(v): A(u) only and A(v) only are one expression.
        (1.1, 7.3, 3.0, 3.0),
        (1.0, 4.0, 3.0, 3.0),
        // Four load steps are 1 − ρ: a target's score is ρ off its
        // family's four loads up, within ε, within 2ε, and beyond.
        (1.0, 4.0 * (1.0 + 0.5e-12), 2.0, 5.0),
        (1.0, 4.0 * (1.0 + 1.5e-12), 2.0, 5.0),
        (1.0, 4.0 * (1.0 + 3e-12), 2.0, 5.0),
        // λ = 0, and λ/C below 4ε: the fold never runs.
        (0.0, 4.0, 2.0, 5.0),
        (1.0, 1e12, 2.0, 5.0),
    ];

    /// The guard restated from its definition: the fold runs iff λ/C
    /// exceeds 4ε and every two entry kinds present with different score
    /// expressions have offsets at least 2ε from a multiple of λ/C apart.
    fn family_guard_holds(
        (lambda, capacity): (f64, f64),
        kinds: &[(bool, bool, u8)],
        [gu, gv]: [f64; 2],
    ) -> bool {
        let step = lambda / capacity;
        let offset = |&(u, v, bonus): &(bool, bool, u8)| {
            f64::from(bonus) + if u { gu } else { 0.0 } + if v { gv } else { 0.0 }
        };
        let same = |a: &(bool, bool, u8), b: &(bool, bool, u8)| {
            a.2 == b.2 && ((a.0, a.1) == (b.0, b.1) || (a.0 != a.1 && b.0 != b.1 && gu == gv))
        };
        step > 4.0 * SCORE_EPSILON
            && kinds.iter().enumerate().all(|(i, a)| {
                kinds[i + 1..].iter().all(|b| {
                    let d = offset(a) - offset(b);
                    same(a, b) || (d - (d / step).round() * step).abs() >= 2.0 * SCORE_EPSILON
                })
            })
    }

    /// Runs the family fold against the dense column and ε-fold on every
    /// column of `k ≤ max_k` partitions (each in one of the four families,
    /// at a load of 0, 1 or 4) × affinity target pairs (`all_targets`:
    /// every pair over none, each partition and one id past k; else five
    /// pairs) under every [`FAMILY_CONFIGS`] entry; asserts the winner,
    /// that the fold breaks no tie the dense fold breaks, and whether the
    /// guard fired. Returns (fold picks, dense fallbacks).
    fn family_grid(max_k: usize, all_targets: impl Fn(usize) -> bool) -> (u64, u64) {
        const LOADS: [usize; 3] = [0, 1, 4];
        let (mut fast, mut dense) = (0u64, 0u64);
        for (lambda, capacity, du, dv) in FAMILY_CONFIGS {
            let theta_u = du / (du + dv);
            let gains = [1.0 + (1.0 - theta_u), 1.0 + (1.0 - (1.0 - theta_u))];
            for k in 1..=max_k {
                let mut targets: Vec<[Option<PartitionId>; 2]> = Vec::new();
                let ids = || std::iter::once(None).chain((0..=k as PartitionId).map(Some));
                if all_targets(k) {
                    targets.extend(ids().flat_map(|a| ids().map(move |b| [a, b])));
                } else {
                    let last = k as PartitionId - 1;
                    targets.extend([[None, None], [Some(0), None], [Some(last), Some(1)]]);
                    targets.extend([[Some(last), Some(last)], [Some(k as PartitionId), Some(0)]]);
                }
                let mut fold = FamilyFold::new(lambda, capacity);
                let (mut bu, mut bv, mut loads) = (vec![0u64], vec![0u64], vec![0; k]);
                let mut column = vec![0.0; k];
                for code in 0..12usize.pow(k as u32) {
                    let (mut c, mut families) = (code, Vec::with_capacity(k));
                    (bu[0], bv[0]) = (0, 0);
                    for (i, load) in loads.iter_mut().enumerate() {
                        let (family, l) = (c % 4, c / 4 % 3);
                        c /= 12;
                        *load = LOADS[l];
                        bu[0] |= u64::from(family & 1 == 1) << i;
                        bv[0] |= u64::from(family & 2 == 2) << i;
                        families.push((family & 1 == 1, family & 2 == 2));
                    }
                    for &[t0, t1] in &targets {
                        // The dense column, as `hdrf_score_column` builds it.
                        for (i, score) in column.iter_mut().enumerate() {
                            *score = lambda * (1.0 - loads[i] as f64 / capacity);
                            if families[i].0 {
                                *score += gains[0];
                            }
                            if families[i].1 {
                                *score += gains[1];
                            }
                        }
                        for t in [t0, t1].into_iter().flatten() {
                            if let Some(score) = column.get_mut(t as usize) {
                                *score += 1.0;
                            }
                        }
                        let mut ties = 0;
                        let want = epsilon_argmax(&column, &loads, &mut ties);
                        let bonus = |i: usize| {
                            [t0, t1].iter().filter(|&&t| t == Some(i as PartitionId)).count() as u8
                        };
                        let mut kinds: Vec<(bool, bool, u8)> =
                            (0..k).map(|i| (families[i].0, families[i].1, bonus(i))).collect();
                        kinds.sort_unstable();
                        kinds.dedup();
                        let guard = family_guard_holds((lambda, capacity), &kinds, gains);
                        let got = fold.place(&bu, &bv, &loads, gains, [t0, t1]);
                        let at = || {
                            format!(
                                "λ {lambda} C {capacity} d {du}/{dv}, families {families:?}, \
                                 loads {loads:?}, targets {t0:?} {t1:?}"
                            )
                        };
                        assert_eq!(got.is_some(), guard, "guard at {}", at());
                        if let Some(p) = got {
                            assert_eq!(Some(p as usize), want, "winner at {}", at());
                            assert_eq!(ties, 0, "tie count at {}", at());
                            fast += 1;
                        } else {
                            dense += 1;
                        }
                    }
                }
            }
        }
        (fast, dense)
    }

    #[test]
    fn family_fold_matches_the_dense_fold_on_every_small_column() {
        let (fast, dense) = family_grid(4, |k| k <= 3);
        // Both paths ran: the guard fires on the settings built for it.
        assert!(fast > 300_000 && dense > 100_000, "fast {fast}, dense {dense}");
    }

    /// The full family fold grid: `cargo test --release -p sgp-partition
    /// --lib -- --ignored` (CI runs it on every push).
    #[test]
    #[ignore = "full grid; run in release"]
    fn family_fold_matches_the_dense_fold_on_every_small_column_full_grid() {
        let (fast, dense) = family_grid(5, |k| k <= 4);
        println!("family fold grid: {fast} fold picks, {dense} dense fallbacks, 0 mismatches");
    }

    /// Past the magnitude bound the fold hands over to the dense fold,
    /// whatever the guard says: rounding could then reach ε.
    #[test]
    fn family_fold_hands_heavy_loads_to_the_dense_fold() {
        let mut fold = FamilyFold::new(1.0, 4.0);
        let bound = fold.load_bound.expect("the fold runs at λ = 1, C = 4");
        assert_eq!(bound, 4 * 505);
        let gains = [1.3, 1.7];
        assert!(fold.place(&[0b01], &[0b10], &[bound, 0], gains, [None, None]).is_some());
        assert!(fold.place(&[0b01], &[0b10], &[bound + 1, 0], gains, [None, None]).is_none());
        assert!(FamilyFold::new(600.0, 1e6).load_bound.is_none(), "λ alone is past the bound");
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
