//! Bounded-movement rebalance after a cluster membership change
//! (DESIGN.md §11).
//!
//! When a machine joins (scale-out), leaves (scale-in), or dies, the
//! vertex master map that the distributed store was built from no
//! longer matches the live cluster: dead partitions still own data, and
//! a fresh partition owns nothing. [`plan_rebalance`] computes the
//! repair as an explicit move list, following the
//! repartitioning-with-movement-budget framing of Le Merrer et al.
//! (arXiv 1310.8211): restore the balance constraint while moving as
//! few vertices as possible, and never move more than the configured
//! budget even when that leaves the constraint unmet.
//!
//! The plan is pure data — the DES layer (`sgp-db`) charges it to the
//! cost model (each move ships the vertex record plus its adjacency)
//! and replays it during the recovery window, so migration cost shows
//! up in availability and tail latency, not as free teleportation.
//!
//! Move selection is greedy highest-gain: mandatory evacuations and
//! balance moves both prefer the destination keeping the most
//! neighbours local (the LDG-style `|P_i ∩ N(v)|` affinity), with
//! deterministic load → index tie-breaks, so the same inputs always
//! yield byte-identical plans.

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::dynamic::restream_rounds;
use crate::edge_cut::UNASSIGNED;
use crate::registry::Algorithm;
use sgp_graph::{Graph, StreamOrder};
use sgp_trace::NullSink;

/// How [`plan_rebalance`] chooses the post-migration owner map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStrategy {
    /// The PR 7 greedy planner: mandatory evacuations plus highest-gain
    /// balance moves, one vertex at a time.
    Greedy,
    /// Restream the whole graph over the current assignment
    /// ([`crate::dynamic::restream_rounds`]) and diff the result into a
    /// budget-truncated move list — the Le Merrer et al. bounded-
    /// movement repartitioning model (DESIGN.md §12).
    Restream {
        /// The vertex-stream algorithm to restream with. Edge-stream
        /// algorithms cannot restream; the planner falls back to
        /// [`MigrationStrategy::Greedy`] for them.
        algorithm: Algorithm,
        /// Stream order of each restreaming pass.
        order: StreamOrder,
        /// Maximum restreaming rounds.
        rounds: usize,
    },
}

/// Knobs for [`plan_rebalance`].
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Maximum number of vertices the plan may move. The planner stops
    /// (reporting `balance_restored = false`) rather than exceed it.
    pub budget: usize,
    /// Balance slack β for the post-migration constraint: no live
    /// partition may hold more than `β · n / live` vertices (Eq. (1) of
    /// the paper, applied to the shrunk or grown cluster).
    pub balance_slack: f64,
    /// Planning strategy (greedy move selection by default).
    pub strategy: MigrationStrategy,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            budget: usize::MAX,
            // sgp-lint: allow(no-float-accounting): balance slack is a config constant mirroring the paper's β, not simulated-time accounting
            balance_slack: 1.1,
            strategy: MigrationStrategy::Greedy,
        }
    }
}

/// One planned vertex relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexMove {
    /// The vertex to relocate.
    pub vertex: u32,
    /// Partition it currently lives on.
    pub from: PartitionId,
    /// Partition it moves to.
    pub to: PartitionId,
}

/// The output of [`plan_rebalance`]: an ordered move list plus the
/// accounting the DES layer charges to the cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Relocations in application order (evacuations first, then
    /// balance moves).
    pub moves: Vec<VertexMove>,
    /// Records shipped: one vertex record plus one adjacency entry per
    /// incident edge, summed over the move list.
    pub data_moved: u64,
    /// Whether the plan leaves every dead partition empty and every
    /// live partition within the balance cap. `false` means the budget
    /// ran out first.
    pub balance_restored: bool,
    /// Per-partition vertex loads after applying the plan.
    pub loads_after: Vec<u64>,
}

impl MigrationPlan {
    /// The new owner map after applying the plan to `owner`.
    pub fn apply(&self, owner: &[PartitionId]) -> Vec<PartitionId> {
        let mut out = owner.to_vec();
        for mv in &self.moves {
            if let Some(slot) = out.get_mut(mv.vertex as usize) {
                *slot = mv.to;
            }
        }
        out
    }
}

/// Affinity of `v` for partition `p` minus its affinity for `q`: how
/// many neighbours (either direction) it would gain locality with by
/// moving. Higher is better for cut quality.
fn gain(g: &Graph, owner: &[PartitionId], v: u32, from: PartitionId, to: PartitionId) -> i64 {
    let mut score = 0i64;
    for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
        let p = owner[w as usize];
        if p == to {
            score += 1;
        } else if p == from {
            score -= 1;
        }
    }
    score
}

/// Plans a bounded-movement rebalance of `owner` onto the `live`
/// partitions (`live.len()` is the post-change partition count; growing
/// the cluster means passing a longer `live` with the new slots `true`
/// and no vertices mapped to them yet).
///
/// Guarantees, pinned by the root property tests (`tests/elastic.rs`):
/// * `moves.len() <= cfg.budget`, always;
/// * the plan is deterministic in its inputs (byte-identical re-plans);
/// * when the budget suffices and the strategy is greedy,
///   `balance_restored` is `true`: dead partitions end empty and every
///   live load is within the cap.
pub fn plan_rebalance(
    g: &Graph,
    owner: &[PartitionId],
    live: &[bool],
    cfg: &MigrationConfig,
) -> MigrationPlan {
    match cfg.strategy {
        MigrationStrategy::Greedy => plan_rebalance_greedy(g, owner, live, cfg),
        MigrationStrategy::Restream { algorithm, order, rounds } => {
            plan_rebalance_restream(g, owner, live, cfg, algorithm, order, rounds)
        }
    }
}

/// The greedy planner (the original PR 7 path): mandatory evacuations
/// in vertex order, then highest-gain balance moves.
fn plan_rebalance_greedy(
    g: &Graph,
    owner: &[PartitionId],
    live: &[bool],
    cfg: &MigrationConfig,
) -> MigrationPlan {
    let k = live.len();
    let n = owner.len();
    let live_count = live.iter().filter(|&&l| l).count();
    let mut current = owner.to_vec();
    let mut loads = vec![0u64; k];
    for &p in &current {
        if let Some(slot) = loads.get_mut(p as usize) {
            *slot += 1;
        }
    }
    let mut plan = MigrationPlan {
        moves: Vec::new(),
        data_moved: 0,
        balance_restored: false,
        loads_after: Vec::new(),
    };
    if live_count == 0 {
        // Nothing can host data; the only "restored" cluster is an
        // empty one.
        plan.balance_restored = n == 0;
        plan.loads_after = loads;
        return plan;
    }
    // sgp-lint: allow(no-float-accounting): the balance cap is a config-derived threshold, not simulated-time accounting
    let cap = ((cfg.balance_slack * n as f64 / live_count as f64).ceil() as u64).max(1);

    // Chooses where `v` should go: the live partition with the best
    // (affinity, load, index) ordering among those under the cap, or
    // the least-loaded live partition when every one is full.
    let pick_target = |current: &[PartitionId], loads: &[u64], v: u32, from: PartitionId| {
        let mut best: Option<(i64, u64, PartitionId)> = None;
        let mut fallback: Option<(u64, PartitionId)> = None;
        for p in 0..k {
            if !live[p] || p as PartitionId == from {
                continue;
            }
            let load = loads[p];
            if fallback.is_none_or(|(l, _)| load < l) {
                fallback = Some((load, p as PartitionId));
            }
            if load >= cap {
                continue;
            }
            let affinity = gain(g, current, v, from, p as PartitionId);
            let better = match best {
                None => true,
                Some((a, l, _)) => affinity > a || (affinity == a && load < l),
            };
            if better {
                best = Some((affinity, load, p as PartitionId));
            }
        }
        best.map(|(_, _, p)| p).or(fallback.map(|(_, p)| p))
    };

    let apply = |plan: &mut MigrationPlan,
                 current: &mut Vec<PartitionId>,
                 loads: &mut Vec<u64>,
                 v: u32,
                 to: PartitionId| {
        let from = current[v as usize];
        plan.moves.push(VertexMove { vertex: v, from, to });
        plan.data_moved += 1 + g.degree(v) as u64;
        if let Some(slot) = loads.get_mut(from as usize) {
            *slot -= 1;
        }
        loads[to as usize] += 1;
        current[v as usize] = to;
    };

    // Phase 1 — mandatory evacuation of dead partitions, in vertex
    // order (the stream-friendly order a recovering store reads its
    // log in).
    let mut budget_hit = false;
    for v in 0..n as u32 {
        let from = current[v as usize];
        if (from as usize) < k && live[from as usize] {
            continue;
        }
        if plan.moves.len() >= cfg.budget {
            budget_hit = true;
            break;
        }
        if let Some(to) = pick_target(&current, &loads, v, from) {
            apply(&mut plan, &mut current, &mut loads, v, to);
        }
    }

    // Phase 2 — greedy highest-gain balance moves: repeatedly pull the
    // best vertex off the most-loaded live partition until every load
    // is within the cap (or the budget runs out).
    if !budget_hit {
        loop {
            let src = (0..k)
                .filter(|&p| live[p] && loads[p] > cap)
                .max_by_key(|&p| (loads[p], std::cmp::Reverse(p)));
            let Some(src) = src else {
                break;
            };
            if plan.moves.len() >= cfg.budget {
                break;
            }
            // Best (gain, lowest id) vertex currently on `src`.
            let mut choice: Option<(i64, u32, PartitionId)> = None;
            for v in 0..n as u32 {
                if current[v as usize] != src as PartitionId {
                    continue;
                }
                let Some(to) = pick_target(&current, &loads, v, src as PartitionId) else {
                    continue;
                };
                let score = gain(g, &current, v, src as PartitionId, to);
                if choice.is_none_or(|(best, _, _)| score > best) {
                    choice = Some((score, v, to));
                }
            }
            let Some((_, v, to)) = choice else {
                break;
            };
            apply(&mut plan, &mut current, &mut loads, v, to);
        }
    }

    let dead_empty = (0..k).all(|p| live[p] || loads[p] == 0);
    let within_cap = (0..k).all(|p| !live[p] || loads[p] <= cap);
    plan.balance_restored = dead_empty && within_cap;
    plan.loads_after = loads;
    plan
}

/// The restreaming planner: compact the live partitions to `0..live`,
/// restream the graph over the compacted current assignment, then diff
/// the accepted outcome against `owner` into a move list — mandatory
/// evacuations (vertex order) first, then quality moves in descending
/// locality gain — truncated to the budget.
fn plan_rebalance_restream(
    g: &Graph,
    owner: &[PartitionId],
    live: &[bool],
    cfg: &MigrationConfig,
    algorithm: Algorithm,
    order: StreamOrder,
    rounds: usize,
) -> MigrationPlan {
    let k = live.len();
    let n = owner.len();
    let live_ids: Vec<PartitionId> =
        (0..k).filter(|&p| live[p]).map(|p| p as PartitionId).collect();
    if live_ids.is_empty() {
        return plan_rebalance_greedy(g, owner, live, cfg);
    }
    // Current assignment in the compacted live id space; vertices on
    // dead partitions become UNASSIGNED so the restream re-places them.
    let compact: Vec<PartitionId> = owner
        .iter()
        .map(|&p| live_ids.binary_search(&p).map(|i| i as PartitionId).unwrap_or(UNASSIGNED))
        .collect();
    let pcfg = PartitionerConfig::new(live_ids.len()).with_slack(cfg.balance_slack);
    let Some(outcome) =
        restream_rounds(g, algorithm, &pcfg, order, &compact, rounds, &mut NullSink)
    else {
        // Edge-stream algorithms cannot restream a vertex-owner map.
        return plan_rebalance_greedy(g, owner, live, cfg);
    };
    // Back to the original partition id space. A vertex can still be
    // UNASSIGNED here only when every restream round was rejected AND it
    // lived on a dead partition; spread those round-robin.
    let target: Vec<PartitionId> = outcome
        .owner
        .iter()
        .enumerate()
        .map(
            |(v, &p)| {
                if p == UNASSIGNED {
                    live_ids[v % live_ids.len()]
                } else {
                    live_ids[p as usize]
                }
            },
        )
        .collect();
    let mut mandatory: Vec<u32> = Vec::new();
    let mut quality: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        let from = owner[v as usize];
        if (from as usize) >= k || !live[from as usize] {
            mandatory.push(v);
        } else if target[v as usize] != from {
            quality.push(v);
        }
    }
    quality.sort_by_key(|&v| {
        (std::cmp::Reverse(gain(g, owner, v, owner[v as usize], target[v as usize])), v)
    });

    let mut plan = MigrationPlan {
        moves: Vec::new(),
        data_moved: 0,
        balance_restored: false,
        loads_after: Vec::new(),
    };
    let mut current = owner.to_vec();
    let mut loads = vec![0u64; k];
    for &p in &current {
        if let Some(slot) = loads.get_mut(p as usize) {
            *slot += 1;
        }
    }
    for v in mandatory.into_iter().chain(quality) {
        if plan.moves.len() >= cfg.budget {
            break;
        }
        let from = current[v as usize];
        let to = target[v as usize];
        if from == to {
            continue;
        }
        plan.moves.push(VertexMove { vertex: v, from, to });
        plan.data_moved += 1 + g.degree(v) as u64;
        if let Some(slot) = loads.get_mut(from as usize) {
            *slot -= 1;
        }
        loads[to as usize] += 1;
        current[v as usize] = to;
    }
    // sgp-lint: allow(no-float-accounting): the balance cap is a config-derived threshold, not simulated-time accounting
    let cap = ((cfg.balance_slack * n as f64 / live_ids.len() as f64).ceil() as u64).max(1);
    let dead_empty = (0..k).all(|p| live[p] || loads[p] == 0);
    let within_cap = (0..k).all(|p| !live[p] || loads[p] <= cap);
    plan.balance_restored = dead_empty && within_cap;
    plan.loads_after = loads;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};
    use sgp_graph::StreamOrder;

    fn setup() -> (Graph, Vec<PartitionId>) {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 240, edges: 1400, seed: 7 });
        let cfg = crate::PartitionerConfig::new(4);
        let p = crate::partition(&g, crate::Algorithm::Ldg, &cfg, StreamOrder::Natural);
        let owner = p.masters(&g);
        (g, owner)
    }

    #[test]
    fn scale_in_evacuates_the_dead_partition() {
        let (g, owner) = setup();
        let live = vec![true, true, true, false];
        let plan = plan_rebalance(&g, &owner, &live, &MigrationConfig::default());
        assert!(plan.balance_restored);
        assert_eq!(plan.loads_after[3], 0);
        let after = plan.apply(&owner);
        assert!(after.iter().all(|&p| p < 3));
        assert!(plan.moves.iter().all(|m| m.from == 3));
    }

    #[test]
    fn scale_out_fills_the_new_partition_within_cap() {
        let (g, owner) = setup();
        let live = vec![true; 5];
        let cfg = MigrationConfig { balance_slack: 1.05, ..MigrationConfig::default() };
        let plan = plan_rebalance(&g, &owner, &live, &cfg);
        assert!(plan.balance_restored);
        let cap = (1.05f64 * 240.0 / 5.0).ceil() as u64;
        assert!(plan.loads_after.iter().all(|&l| l <= cap), "{:?}", plan.loads_after);
        assert!(plan.loads_after[4] > 0, "new partition received load");
    }

    #[test]
    fn budget_is_a_hard_ceiling() {
        let (g, owner) = setup();
        let live = vec![true, true, true, false];
        let cfg = MigrationConfig { budget: 5, ..MigrationConfig::default() };
        let plan = plan_rebalance(&g, &owner, &live, &cfg);
        assert_eq!(plan.moves.len(), 5);
        assert!(!plan.balance_restored, "60-ish strays cannot fit in 5 moves");
    }

    #[test]
    fn plans_are_deterministic() {
        let (g, owner) = setup();
        let live = vec![true, false, true, true];
        let a = plan_rebalance(&g, &owner, &live, &MigrationConfig::default());
        let b = plan_rebalance(&g, &owner, &live, &MigrationConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn healthy_balanced_cluster_needs_no_moves() {
        let (g, owner) = setup();
        let live = vec![true; 4];
        let plan = plan_rebalance(&g, &owner, &live, &MigrationConfig::default());
        assert!(plan.moves.is_empty());
        assert!(plan.balance_restored);
        assert_eq!(plan.data_moved, 0);
    }

    #[test]
    fn no_live_partitions_is_reported_not_panicked() {
        let (g, owner) = setup();
        let plan = plan_rebalance(&g, &owner, &[false; 4], &MigrationConfig::default());
        assert!(plan.moves.is_empty());
        assert!(!plan.balance_restored);
    }

    fn restream_cfg(budget: usize) -> MigrationConfig {
        MigrationConfig {
            budget,
            strategy: MigrationStrategy::Restream {
                algorithm: crate::Algorithm::Ldg,
                order: StreamOrder::Natural,
                rounds: 3,
            },
            ..MigrationConfig::default()
        }
    }

    #[test]
    fn restream_strategy_zero_budget_is_identity() {
        let (g, owner) = setup();
        let plan = plan_rebalance(&g, &owner, &[true; 4], &restream_cfg(0));
        assert!(plan.moves.is_empty());
        assert_eq!(plan.apply(&owner), owner);
        assert_eq!(plan.data_moved, 0);
    }

    #[test]
    fn restream_strategy_respects_budget_and_is_deterministic() {
        let (g, owner) = setup();
        let live = vec![true, true, true, false];
        let a = plan_rebalance(&g, &owner, &live, &restream_cfg(40));
        let b = plan_rebalance(&g, &owner, &live, &restream_cfg(40));
        assert_eq!(a, b);
        assert!(a.moves.len() <= 40);
        // Evacuations come first, in vertex order.
        let evac: Vec<u32> = a.moves.iter().take_while(|m| m.from == 3).map(|m| m.vertex).collect();
        assert!(evac.windows(2).all(|w| w[0] < w[1]));
        assert!(a.moves.iter().all(|m| m.to < 3));
    }

    #[test]
    fn restream_strategy_falls_back_to_greedy_for_edge_algorithms() {
        let (g, owner) = setup();
        let live = vec![true, true, true, false];
        let cfg = MigrationConfig {
            strategy: MigrationStrategy::Restream {
                algorithm: crate::Algorithm::Hdrf,
                order: StreamOrder::Natural,
                rounds: 2,
            },
            ..MigrationConfig::default()
        };
        let restream = plan_rebalance(&g, &owner, &live, &cfg);
        let greedy = plan_rebalance(&g, &owner, &live, &MigrationConfig::default());
        assert_eq!(restream, greedy);
    }
}
