//! Restreaming over a prior assignment (DESIGN.md §12).
//!
//! Nishimura & Ugander's restreaming observation: a one-pass streaming
//! partitioner gets strictly more useful as the state it consults gets
//! closer to a full partitioning — so re-running the same partitioner
//! with its *own previous output* preloaded as the starting assignment
//! monotonically improves the cut in practice. [`restream_rounds`]
//! packages that loop over the sequential vertex driver: each round
//! preloads the current vertex-owner map into a fresh machine, replays
//! the stream, and accepts the candidate only if the integer edge-cut
//! did not get worse, stopping at a fixpoint (no vertex moved). The
//! bounded-movement
//! variant lives in [`crate::migration`], which runs this loop under
//! [`MigrationConfig::budget`](crate::migration::MigrationConfig)
//! accounting.
//!
//! Everything here is integer arithmetic over deterministic streams, so
//! the same `(graph, algorithm, config, order, initial)` always yields
//! byte-identical outcomes.
#![expect(
    clippy::indexing_slicing,
    reason = "cut_edges indexes owner by endpoints of edges of the same graph the owner vector was built over (checked by callers via assert on len)"
)]

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::registry::{Algorithm, Boxed};
use crate::streaming::{drive_vertex_stream, VertexIngest};
use sgp_graph::{Graph, StreamOrder};
use sgp_trace::{keys, NullSink, TraceSink};

/// Number of edges whose endpoints live on different partitions under
/// `owner` — the integer edge-cut the restreaming acceptance rule uses
/// (exact, no float comparisons).
pub fn cut_edges(g: &Graph, owner: &[PartitionId]) -> u64 {
    g.edges().filter(|e| owner[e.src as usize] != owner[e.dst as usize]).count() as u64
}

/// One accepted restreaming round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestreamRound {
    /// Integer edge-cut after this round.
    pub cut_edges: u64,
    /// Vertices whose owner changed in this round.
    pub moved: u64,
}

/// Result of [`restream_rounds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestreamOutcome {
    /// The final vertex-owner map.
    pub owner: Vec<PartitionId>,
    /// Integer edge-cut of the initial assignment.
    pub initial_cut_edges: u64,
    /// The accepted rounds, in order (may be shorter than requested:
    /// the loop stops at a fixpoint or when a round degrades the cut).
    pub rounds: Vec<RestreamRound>,
}

/// Runs up to `rounds` restreaming rounds of `algorithm` over its own
/// prior assignment, starting from `initial` (one owner per vertex),
/// and counts the accepted rounds into `sink`
/// ([`keys::PARTITION_RESTREAM_ROUNDS`]; pass [`NullSink`] for none).
/// Returns `None` when `algorithm` does not consume a vertex stream —
/// restreaming re-places *vertices* against a persistent owner map, so
/// only the edge-cut family participates.
pub fn restream_rounds<S: TraceSink>(
    g: &Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
    initial: &[PartitionId],
    rounds: usize,
    sink: &mut S,
) -> Option<RestreamOutcome> {
    let mut owner = initial.to_vec();
    let initial_cut_edges = cut_edges(g, &owner);
    let mut current_cut = initial_cut_edges;
    let mut accepted = Vec::new();
    let machines = algorithm.boxed(g, cfg);
    for _ in 0..rounds {
        let Boxed::Vertex(make, _) = &machines else {
            return None;
        };
        let mut core = VertexIngest::init(make(), g.num_vertices(), cfg.k);
        core.preload(&owner);
        drive_vertex_stream(g, &mut core, order, cfg.window.max(1), &mut NullSink);
        let cand = core.into_owner();
        let cand_cut = cut_edges(g, &cand);
        if cand_cut > current_cut {
            break;
        }
        let moved = owner.iter().zip(&cand).filter(|(a, b)| a != b).count() as u64;
        owner = cand;
        current_cut = cand_cut;
        accepted.push(RestreamRound { cut_edges: cand_cut, moved });
        if moved == 0 {
            break;
        }
    }
    if sink.enabled() {
        sink.counter_add(keys::PARTITION_RESTREAM_ROUNDS, 0, accepted.len() as u64);
    }
    Some(RestreamOutcome { owner, initial_cut_edges, rounds: accepted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::partition;
    use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};

    fn graph() -> Graph {
        erdos_renyi(ErdosRenyiConfig { vertices: 400, edges: 2400, seed: 11 })
    }

    /// `k = 4`, natural order, untraced.
    fn restream(
        g: &Graph,
        alg: Algorithm,
        initial: &[PartitionId],
        rounds: usize,
    ) -> Option<RestreamOutcome> {
        let cfg = PartitionerConfig::new(4);
        restream_rounds(g, alg, &cfg, StreamOrder::Natural, initial, rounds, &mut NullSink)
    }

    fn initial_owner(g: &Graph, k: usize) -> Vec<PartitionId> {
        let cfg = PartitionerConfig::new(k);
        let p = partition(g, Algorithm::Ldg, &cfg, StreamOrder::Natural);
        p.vertex_owner.unwrap()
    }

    #[test]
    fn cut_never_increases_over_rounds() {
        let g = graph();
        let initial = initial_owner(&g, 4);
        let out = restream(&g, Algorithm::Ldg, &initial, 6).unwrap();
        let mut last = out.initial_cut_edges;
        for r in &out.rounds {
            assert!(r.cut_edges <= last, "round cut {} > previous {last}", r.cut_edges);
            last = r.cut_edges;
        }
        assert_eq!(cut_edges(&g, &out.owner), last);
    }

    #[test]
    fn same_inputs_same_outcome() {
        let g = graph();
        let initial = initial_owner(&g, 4);
        let a = restream(&g, Algorithm::Fennel, &initial, 3);
        let b = restream(&g, Algorithm::Fennel, &initial, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn edge_stream_algorithms_refuse() {
        let g = graph();
        let initial = initial_owner(&g, 4);
        assert!(restream(&g, Algorithm::Hdrf, &initial, 2).is_none());
    }

    #[test]
    fn zero_rounds_is_identity() {
        let g = graph();
        let initial = initial_owner(&g, 4);
        let out = restream(&g, Algorithm::Ldg, &initial, 0).unwrap();
        assert_eq!(out.owner, initial);
        assert!(out.rounds.is_empty());
    }
}
