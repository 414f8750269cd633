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
