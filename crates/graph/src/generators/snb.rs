//! LDBC-SNB-like social network generator.
//!
//! The paper's online-query experiments run on the LDBC SNB SF-1000
//! friendship graph ("users and knows relationships", Table 3: heavy
//! tailed, avg degree 124, max 3682). The LDBC data generator produces a
//! graph with (a) strong community structure (people know people in the
//! same university/city/interest cluster) and (b) a heavy-tailed but
//! *bounded* degree distribution — unlike Twitter there are no 10⁶-degree
//! hubs. Both properties matter: community structure is what LDG/FENNEL
//! and METIS exploit to cut few edges (Table 4), and the bounded tail
//! plus workload skew is what drives the paper's hotspot findings.
//!
//! This generator reproduces both: vertices are assigned to Zipf-sized
//! communities; each vertex draws a (capped) Zipf degree and connects
//! mostly inside its community, with a configurable fraction of
//! long-range friendships. Friendships are symmetric (both directions
//! materialized), like `knows`.

use crate::csr::Graph;
use crate::sampling::{seeded_rng, Zipf};
use crate::types::VertexId;
use crate::GraphBuilder;

/// Configuration for the [`snb_social`] generator.
#[derive(Debug, Clone, Copy)]
pub struct SnbConfig {
    /// Number of persons.
    pub persons: usize,
    /// Number of communities (universities/cities).
    pub communities: usize,
    /// Target average number of friends per person.
    pub avg_friends: f64,
    /// Zipf exponent of the friend-count distribution.
    pub degree_exponent: f64,
    /// Maximum friends for any person (SNB degrees are capped, unlike
    /// Twitter followers).
    pub max_friends: usize,
    /// Probability that a friendship leaves the community.
    pub inter_community_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SnbConfig {
    fn default() -> Self {
        SnbConfig {
            persons: 20_000,
            communities: 200,
            avg_friends: 20.0,
            degree_exponent: 0.9,
            max_friends: 500,
            inter_community_rate: 0.15,
            seed: 0x50C1A1,
        }
    }
}

/// Generates the SNB-like friendship graph. Every friendship appears as
/// two directed edges (u→v and v→u).
pub fn snb_social(cfg: SnbConfig) -> Graph {
    assert!(cfg.persons >= 2, "need at least two persons");
    assert!(cfg.communities >= 1, "need at least one community");
    assert!((0.0..=1.0).contains(&cfg.inter_community_rate));
    let n = cfg.persons;
    let mut rng = seeded_rng(cfg.seed);

    // Community sizes ~ Zipf(0.8) so a few big cities exist.
    let comm_zipf = Zipf::new(cfg.communities, 0.8);
    let mut community_of: Vec<u32> = (0..n).map(|_| comm_zipf.sample(&mut rng) as u32).collect();
    // Group members per community for fast intra-community sampling.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); cfg.communities];
    for (v, &c) in community_of.iter().enumerate() {
        members[c as usize].push(v as VertexId);
    }
    // Communities with a single member cannot host intra edges; fold them
    // into community 0 so sampling always succeeds.
    for c in 0..cfg.communities {
        if members[c].len() == 1 && c != 0 {
            let v = members[c][0];
            community_of[v as usize] = 0;
            members[0].push(v);
            members[c].clear();
        }
    }

    // Per-person friend budget ~ capped Zipf scaled to the mean.
    let deg_zipf = Zipf::new(n.min(100_000), cfg.degree_exponent);
    let raw: Vec<f64> = (0..n).map(|_| (deg_zipf.sample(&mut rng) + 1) as f64).collect();
    let raw_mean: f64 = raw.iter().sum::<f64>() / n as f64;
    let scale = cfg.avg_friends / raw_mean;
    let budgets: Vec<usize> =
        raw.iter().map(|r| ((r * scale).round() as usize).clamp(1, cfg.max_friends)).collect();

    let mut builder = GraphBuilder::with_capacity((cfg.avg_friends as usize + 1) * n);
    for v in 0..n as VertexId {
        let c = community_of[v as usize] as usize;
        let local = &members[c];
        for _ in 0..budgets[v as usize] {
            let w = if rng.unit() < cfg.inter_community_rate || local.len() < 2 {
                rng.index(n) as VertexId
            } else {
                local[rng.index(local.len())]
            };
            if w != v {
                builder.push_edge(v, w);
                builder.push_edge(w, v);
            }
        }
    }
    builder.ensure_vertices(n).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SnbConfig {
        SnbConfig { persons: 2000, communities: 20, avg_friends: 10.0, ..SnbConfig::default() }
    }

    #[test]
    fn snb_is_symmetric() {
        let g = snb_social(small());
        for e in g.edges() {
            assert!(g.has_edge(e.dst, e.src), "missing reverse of {e}");
        }
    }

    #[test]
    fn snb_is_deterministic() {
        let a = snb_social(small());
        let b = snb_social(small());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn snb_degree_is_capped() {
        let cfg = SnbConfig { max_friends: 50, ..small() };
        let g = snb_social(cfg);
        // In-degree can exceed the per-person budget (popular people), but
        // not by orders of magnitude as in Twitter.
        assert!(g.max_degree() < 20 * 50, "max degree {}", g.max_degree());
    }

    #[test]
    fn snb_has_community_locality() {
        // With inter_community_rate = 0, a vertex's neighbours should sit
        // in few distinct communities; measure proxy: average neighbour
        // overlap via clustering-like count of shared neighbours. We use a
        // cheaper check: most edges connect vertices whose neighbourhoods
        // intersect.
        let g = snb_social(SnbConfig { inter_community_rate: 0.0, ..small() });
        let mut intersecting = 0usize;
        let mut total = 0usize;
        for e in g.edges().take(2000) {
            total += 1;
            let a = g.out_neighbors(e.src);
            let b = g.out_neighbors(e.dst);
            let mut i = 0;
            let mut j = 0;
            let mut shared = false;
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        shared = true;
                        break;
                    }
                }
            }
            if shared {
                intersecting += 1;
            }
        }
        assert!(
            intersecting as f64 > 0.5 * total as f64,
            "community graph should have triadic closure: {intersecting}/{total}"
        );
    }

    #[test]
    fn snb_average_degree_near_target() {
        let g = snb_social(small());
        // Each friendship adds 2 directed edges; dedup removes repeats, so
        // allow a wide band.
        let avg = g.avg_degree();
        assert!(avg > 5.0 && avg < 40.0, "avg degree {avg}");
    }
}
