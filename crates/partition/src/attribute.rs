//! Attribute-balanced streaming partitioning (the paper's Appendix A).
//!
//! "Re-streaming versions of LDG and FENNEL can generate a balanced
//! partitioning on any vertex attribute `a(u)` by substituting `|P_i|`
//! with `x_i = Σ_{u∈P_i} a(u)` in Equation (4) and (5)."
//!
//! This module implements exactly that substitution, turning LDG and
//! FENNEL into *workload-aware streaming* partitioners: feed the access
//! counts recorded by `sgp_db`'s `AccessRecorder` as the attribute and
//! the stream pass balances *load* instead of cardinality — the
//! streaming counterpart of the paper's offline weighted-METIS
//! experiment (Fig. 8), and one of the §7 future-work directions
//! ("algorithms that consider … impacts of workload execution skew").

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::edge_cut::{VertexStreamPartitioner, VertexStreamState};
use crate::kernels::LoadTermMemo;
use sgp_graph::stream::VertexRecord;

/// LDG with the partition-size term replaced by an arbitrary vertex
/// attribute (Eq. 4 with `x_i = Σ a(u)`).
#[derive(Debug, Clone)]
pub struct AttributeLdg {
    k: usize,
    attribute: Vec<u64>,
    capacity: f64,
    loads: Vec<u64>,
    assigned: Vec<PartitionId>,
    /// Scratch neighbour histogram reused across vertices (DESIGN.md §13).
    hist: Vec<usize>,
}

impl AttributeLdg {
    /// Creates the partitioner; `attribute[v]` is the weight balanced
    /// across partitions (e.g. `1 + access_count(v)`).
    ///
    /// # Panics
    /// Panics if any attribute is zero (zero-weight vertices would make
    /// the balance term blind to them; use 1 as the floor).
    pub fn new(cfg: &PartitionerConfig, attribute: Vec<u64>) -> Self {
        assert!(!attribute.is_empty(), "attribute vector must cover the graph");
        assert!(attribute.iter().all(|&a| a > 0), "attributes must be positive");
        let total: u64 = attribute.iter().sum();
        let capacity = (cfg.balance_slack * total as f64 / cfg.k as f64).max(1.0);
        let n = attribute.len();
        AttributeLdg {
            k: cfg.k,
            attribute,
            capacity,
            loads: vec![0; cfg.k],
            assigned: vec![PartitionId::MAX; n],
            hist: Vec::new(),
        }
    }

    /// Current per-partition attribute loads.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }
}

impl VertexStreamPartitioner for AttributeLdg {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        state.neighbor_histogram_into(&rec.neighbors, self.k, &mut self.hist);
        let w = self.attribute[rec.vertex as usize];
        let mut best: Option<(f64, u64, usize)> = None;
        for (i, &h) in self.hist.iter().enumerate() {
            let load = self.loads[i];
            if (load + w) as f64 > self.capacity {
                continue;
            }
            let score = (h as f64 + 1.0) * (1.0 - load as f64 / self.capacity);
            let candidate = (score, load, i);
            best = Some(match best {
                None => candidate,
                Some(b) if score > b.0 + 1e-12 || ((score - b.0).abs() <= 1e-12 && load < b.1) => {
                    candidate
                }
                Some(b) => b,
            });
        }
        let target = best.map(|(_, _, i)| i).unwrap_or_else(|| {
            // Heavy vertex that fits nowhere within slack: least loaded.
            // sgp-lint: allow(no-panic-in-lib): 0..self.k is non-empty because PartitionerConfig::new asserts k >= 1
            (0..self.k).min_by_key(|&i| self.loads[i]).expect("k >= 1")
        });
        // Re-streaming support: undo the previous pass's placement.
        let old = self.assigned[rec.vertex as usize];
        if old != PartitionId::MAX {
            self.loads[old as usize] -= w;
        }
        self.assigned[rec.vertex as usize] = target as PartitionId;
        self.loads[target] += w;
        target as PartitionId
    }

    fn name(&self) -> &'static str {
        "aLDG"
    }

    fn passes(&self) -> usize {
        // Appendix A frames attribute balancing as a re-streaming
        // technique: a second pass lets early placements adapt to heavy
        // vertices discovered late in the first pass.
        2
    }
}

/// FENNEL with the additive load term computed over an arbitrary vertex
/// attribute (Eq. 5 with `x_i = Σ a(u)`, load measured as a fraction of
/// the per-partition share so α keeps its original scale).
#[derive(Debug, Clone)]
pub struct AttributeFennel {
    k: usize,
    attribute: Vec<u64>,
    assigned: Vec<PartitionId>,
    alpha: f64,
    gamma: f64,
    /// Average attribute mass per vertex — converts attribute loads back
    /// into "equivalent vertices" so α's calibration survives.
    per_vertex_unit: f64,
    capacity: f64,
    loads: Vec<u64>,
    /// Scratch neighbour histogram reused across vertices (DESIGN.md §13).
    hist: Vec<usize>,
    /// The load penalty per partition, recomputed when `loads[i]` moves.
    load_penalty: LoadTermMemo,
}

impl AttributeFennel {
    /// Creates the partitioner for a graph with `m` edges.
    ///
    /// # Panics
    /// Panics if the attribute vector is empty or contains zeros.
    pub fn new(cfg: &PartitionerConfig, attribute: Vec<u64>, m: usize) -> Self {
        assert!(!attribute.is_empty(), "attribute vector must cover the graph");
        assert!(attribute.iter().all(|&a| a > 0), "attributes must be positive");
        let n = attribute.len();
        let total: u64 = attribute.iter().sum();
        AttributeFennel {
            k: cfg.k,
            alpha: cfg.resolved_fennel_alpha(n, m),
            gamma: cfg.fennel_gamma,
            per_vertex_unit: total as f64 / n as f64,
            capacity: (cfg.balance_slack * total as f64 / cfg.k as f64).max(1.0),
            assigned: vec![PartitionId::MAX; attribute.len()],
            attribute,
            loads: vec![0; cfg.k],
            hist: Vec::new(),
            load_penalty: LoadTermMemo::new(cfg.k),
        }
    }
}

impl VertexStreamPartitioner for AttributeFennel {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        state.neighbor_histogram_into(&rec.neighbors, self.k, &mut self.hist);
        let w = self.attribute[rec.vertex as usize];
        let mut best: Option<(f64, u64, usize)> = None;
        for (i, &h) in self.hist.iter().enumerate() {
            let load = self.loads[i];
            if (load + w) as f64 > self.capacity {
                continue;
            }
            let penalty = self.load_penalty.get(i, load, |load| {
                let equivalent_vertices = load as f64 / self.per_vertex_unit;
                self.alpha * self.gamma * equivalent_vertices.powf(self.gamma - 1.0)
            });
            let score = h as f64 - penalty;
            let candidate = (score, load, i);
            best = Some(match best {
                None => candidate,
                Some(b) if score > b.0 + 1e-12 || ((score - b.0).abs() <= 1e-12 && load < b.1) => {
                    candidate
                }
                Some(b) => b,
            });
        }
        let target = best.map(|(_, _, i)| i).unwrap_or_else(|| {
            // sgp-lint: allow(no-panic-in-lib): 0..self.k is non-empty because PartitionerConfig::new asserts k >= 1
            (0..self.k).min_by_key(|&i| self.loads[i]).expect("k >= 1")
        });
        let old = self.assigned[rec.vertex as usize];
        if old != PartitionId::MAX {
            self.loads[old as usize] -= w;
        }
        self.assigned[rec.vertex as usize] = target as PartitionId;
        self.loads[target] += w;
        target as PartitionId
    }

    fn name(&self) -> &'static str {
        "aFNL"
    }

    fn passes(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::Ldg;
    use crate::metrics;
    use crate::streaming::run_vertex_stream;
    use sgp_graph::generators::{snb_social, SnbConfig};
    use sgp_graph::sampling::{seeded_rng, shuffle, Zipf};
    use sgp_graph::{Graph, StreamOrder};
    use sgp_trace::NullSink;

    fn graph() -> Graph {
        snb_social(SnbConfig {
            persons: 2000,
            communities: 25,
            avg_friends: 10.0,
            ..SnbConfig::default()
        })
    }

    /// Zipf-skewed access weights over a random permutation.
    fn skewed_weights(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        let zipf = Zipf::new(n, 0.9);
        let mut w = vec![1u64; n];
        for _ in 0..5 * n {
            w[zipf.sample(&mut rng)] += 1;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        shuffle(&mut perm, &mut rng);
        perm.into_iter().map(|i| w[i]).collect()
    }

    fn attribute_loads(owner: &[u32], weights: &[u64], k: usize) -> Vec<u64> {
        let mut loads = vec![0u64; k];
        for (v, &p) in owner.iter().enumerate() {
            loads[p as usize] += weights[v];
        }
        loads
    }

    #[test]
    fn attribute_ldg_balances_weights_plain_ldg_does_not() {
        let g = graph();
        let k = 8;
        let cfg = PartitionerConfig::new(k);
        let weights = skewed_weights(g.num_vertices(), 3);
        let order = StreamOrder::Random { seed: 9 };

        let plain =
            run_vertex_stream(&g, &mut Ldg::new(&cfg, g.num_vertices()), k, order, &mut NullSink);
        let aware = run_vertex_stream(
            &g,
            &mut AttributeLdg::new(&cfg, weights.clone()),
            k,
            order,
            &mut NullSink,
        );

        let imb = |p: &crate::Partitioning| {
            let loads = attribute_loads(p.vertex_owner.as_ref().unwrap(), &weights, k);
            let avg = loads.iter().sum::<u64>() as f64 / k as f64;
            *loads.iter().max().unwrap() as f64 / avg
        };
        let (plain_imb, aware_imb) = (imb(&plain), imb(&aware));
        assert!(
            aware_imb < plain_imb,
            "attribute LDG weight imbalance {aware_imb:.2} must beat plain LDG {plain_imb:.2}"
        );
        assert!(aware_imb < 1.25, "attribute LDG must stay near the slack: {aware_imb:.2}");
    }

    #[test]
    fn attribute_fennel_balances_weights() {
        let g = graph();
        let k = 8;
        let cfg = PartitionerConfig::new(k);
        let weights = skewed_weights(g.num_vertices(), 5);
        let p = run_vertex_stream(
            &g,
            &mut AttributeFennel::new(&cfg, weights.clone(), g.num_edges()),
            k,
            StreamOrder::Random { seed: 2 },
            &mut NullSink,
        );
        let loads = attribute_loads(p.vertex_owner.as_ref().unwrap(), &weights, k);
        let avg = loads.iter().sum::<u64>() as f64 / k as f64;
        let imb = *loads.iter().max().unwrap() as f64 / avg;
        assert!(imb < 1.3, "attribute FENNEL weight imbalance {imb:.2}");
    }

    #[test]
    fn unit_attribute_degenerates_to_cardinality_balance() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let p = run_vertex_stream(
            &g,
            &mut AttributeLdg::new(&cfg, vec![1; g.num_vertices()]),
            4,
            StreamOrder::Random { seed: 7 },
            &mut NullSink,
        );
        let counts = p.vertices_per_partition().unwrap();
        assert!(metrics::load_imbalance(&counts) < 1.1);
    }

    #[test]
    fn attribute_ldg_still_exploits_structure() {
        // With unit weights, the attribute variant should cut far fewer
        // edges than hash (it is still LDG at heart).
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let aware = run_vertex_stream(
            &g,
            &mut AttributeLdg::new(&cfg, vec![1; g.num_vertices()]),
            4,
            StreamOrder::Random { seed: 1 },
            &mut NullSink,
        );
        let hash = run_vertex_stream(
            &g,
            &mut crate::edge_cut::HashVertex::new(&cfg),
            4,
            StreamOrder::Random { seed: 1 },
            &mut NullSink,
        );
        let (ea, eh) = (
            metrics::edge_cut_ratio(&g, &aware).unwrap(),
            metrics::edge_cut_ratio(&g, &hash).unwrap(),
        );
        assert!(ea < 0.9 * eh, "attribute LDG ECR {ea:.3} should beat hash {eh:.3}");
    }

    #[test]
    #[should_panic(expected = "attributes must be positive")]
    fn zero_attributes_rejected() {
        let cfg = PartitionerConfig::new(2);
        AttributeLdg::new(&cfg, vec![1, 0, 1]);
    }

    #[test]
    fn heavy_single_vertex_is_still_placed() {
        // One vertex heavier than a whole partition share must not panic
        // and must land somewhere.
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let mut w = vec![1u64; g.num_vertices()];
        w[0] = 10 * g.num_vertices() as u64;
        let p = run_vertex_stream(
            &g,
            &mut AttributeLdg::new(&cfg, w),
            4,
            StreamOrder::Natural,
            &mut NullSink,
        );
        assert!(p.vertex_owner.unwrap().iter().all(|&x| x < 4));
    }
}
