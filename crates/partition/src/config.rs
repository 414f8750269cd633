//! Shared configuration for the streaming partitioners.

/// Parameters of the (k, β)-balanced partitioning problem (Eq. 1 of the
/// paper) plus the per-algorithm knobs the paper discusses.
#[derive(Debug, Clone, Copy)]
pub struct PartitionerConfig {
    /// Number of partitions `k`.
    pub k: usize,
    /// Balance slack `β ≥ 1`; `β = 1` demands exact balance. Used as the
    /// capacity multiplier by LDG (`C = β·|V|/k`) and HDRF/Ginger
    /// (`C = β·|E|/k`).
    pub balance_slack: f64,
    /// FENNEL's γ exponent (the paper uses the original study's 1.5).
    pub fennel_gamma: f64,
    /// FENNEL's α, or `None` to use the paper's closed form
    /// `α = √k · m / n^1.5`.
    pub fennel_alpha: Option<f64>,
    /// HDRF's λ balance weight; the HDRF paper recommends λ > 1 to escape
    /// the degenerate single-partition behaviour of plain greedy.
    pub hdrf_lambda: f64,
    /// Ginger's high-degree threshold, as a multiple of the average
    /// degree; vertices above it are hashed instead of grouped.
    pub ginger_threshold_factor: f64,
    /// Seed for all hash-based and tie-breaking decisions.
    pub seed: u64,
    /// Look-ahead window size `W` for the buffered streaming model
    /// (ADWISE-style): every sequential run — [`crate::registry::Run`]
    /// under `Exec::Sequential`, [`crate::registry::partition`],
    /// restreaming, the [`crate::streaming::StreamingPartitioner`]
    /// facade — holds up to `W − 1` elements and places the
    /// highest-affinity buffered element first; the parallel loaders
    /// place on arrival and `Run::execute` refuses `W > 1` under them.
    /// `W = 1` (the default) degenerates exactly to the paper's one-pass
    /// model — the buffer never holds an element across a placement, so
    /// arrival order is placement order.
    pub window: usize,
    /// Whether the 2PS two-phase partitioner runs its streaming
    /// clustering pass. Disabled, its assignment pass degenerates exactly
    /// to HDRF (the differential tests pin this).
    pub two_phase_clustering: bool,
}

impl PartitionerConfig {
    /// Default configuration for `k` partitions, matching the parameter
    /// choices reported by the cited algorithm papers.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one partition");
        PartitionerConfig {
            k,
            balance_slack: 1.05,
            fennel_gamma: 1.5,
            fennel_alpha: None,
            hdrf_lambda: 1.1,
            ginger_threshold_factor: 4.0,
            seed: 0x5A5A_1234,
            window: 1,
            two_phase_clustering: true,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different balance slack.
    pub(crate) fn with_slack(mut self, beta: f64) -> Self {
        assert!(beta >= 1.0, "slack must be >= 1");
        self.balance_slack = beta;
        self
    }

    /// Returns a copy with a different look-ahead window `W ≥ 1`.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "window must be >= 1");
        self.window = window;
        self
    }

    /// Vertex capacity `C = β·n/k` used by LDG's penalty term.
    pub(crate) fn vertex_capacity(&self, n: usize) -> f64 {
        self.balance_slack * n as f64 / self.k as f64
    }

    /// Edge capacity `C = β·m/k` used by HDRF's and Ginger's balance terms.
    pub(crate) fn edge_capacity(&self, m: usize) -> f64 {
        self.balance_slack * m as f64 / self.k as f64
    }

    /// FENNEL's α: explicit override or the closed form
    /// `√k · m / n^1.5` from the FENNEL paper (§4.1.1).
    pub(crate) fn resolved_fennel_alpha(&self, n: usize, m: usize) -> f64 {
        self.fennel_alpha.unwrap_or_else(|| {
            if n == 0 {
                1.0
            } else {
                (self.k as f64).sqrt() * m as f64 / (n as f64).powf(1.5)
            }
        })
    }
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        Self::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_scale_with_k() {
        let c = PartitionerConfig::new(4).with_slack(1.0);
        assert!((c.vertex_capacity(100) - 25.0).abs() < 1e-12);
        assert!((c.edge_capacity(400) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn fennel_alpha_closed_form() {
        let c = PartitionerConfig::new(4);
        // √4 · 1000 / 100^1.5 = 2 * 1000 / 1000 = 2
        assert!((c.resolved_fennel_alpha(100, 1000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fennel_alpha_override_wins() {
        let mut c = PartitionerConfig::new(4);
        c.fennel_alpha = Some(7.5);
        assert_eq!(c.resolved_fennel_alpha(100, 1000), 7.5);
    }

    #[test]
    #[should_panic(expected = "need at least one partition")]
    fn zero_partitions_rejected() {
        PartitionerConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "slack must be >= 1")]
    fn sub_one_slack_rejected() {
        PartitionerConfig::new(2).with_slack(0.5);
    }
}
