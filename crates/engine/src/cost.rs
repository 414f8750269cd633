//! Cost model and run reports.
//!
//! The paper measures three runtime quantities on PowerLyra: total
//! network communication (Fig. 1), the distribution of per-worker
//! computation time (Fig. 4), and end-to-end execution time (Fig. 3).
//! The engine produces all three from first principles:
//!
//! * every gather/scatter edge operation and every apply costs a fixed
//!   number of simulated nanoseconds on its machine;
//! * every message costs its wire size ([`crate::wire`]) on both the
//!   sender's and receiver's NIC, with per-machine bandwidth;
//! * an iteration ends at a synchronous barrier, so its wall time is the
//!   *maximum* over machines of compute + network time, plus a barrier
//!   latency.

/// Simulated hardware constants. Defaults approximate the paper's
/// m5.2xlarge workers (8 cores, 10 Gb/s NIC); only *relative* results
/// matter for the reproduction.
///
/// The engine counts a superstep's edge operations and applies per
/// machine as integers and prices them once, at the barrier
/// ([`CostModel::compute_ns`]). While `ns_per_edge_op` and
/// `ns_per_apply` are integer-valued (the defaults are) and a
/// machine's superstep total stays below 2^53 ns, that price equals,
/// bit for bit, a running sum of one `+= ns_per_*` per operation; with
/// fractional constants it is the total to within three roundings,
/// where the running sum drifts by one rounding per operation.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Nanoseconds per gather/scatter edge operation.
    pub ns_per_edge_op: f64,
    /// Nanoseconds per apply (vertex) operation.
    pub ns_per_apply: f64,
    /// NIC bandwidth per machine, bytes per second (full duplex).
    pub bytes_per_second: f64,
    /// Per-iteration synchronous barrier latency, nanoseconds.
    pub barrier_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ns_per_edge_op: 25.0,
            ns_per_apply: 60.0,
            // Effective application-level goodput, not line rate: GAS
            // sync messages are tiny (16-24 B), so a 10 Gb/s NIC
            // delivers a fraction of its bandwidth to the engine.
            bytes_per_second: 3.0e8,
            // Fast in-memory barrier. Kept small relative to per-machine
            // work so the simulated cluster is compute/network-bound at
            // laptop-scale graphs, as the paper's clusters are at
            // billion-edge scale.
            barrier_ns: 20_000.0,
        }
    }
}

impl CostModel {
    /// Simulated compute nanoseconds of a machine that executed
    /// `edge_ops` gather/scatter edge operations and `applies` applies
    /// in one superstep.
    pub fn compute_ns(&self, edge_ops: u64, applies: u64) -> f64 {
        edge_ops as f64 * self.ns_per_edge_op + applies as f64 * self.ns_per_apply
    }
}

/// Statistics for a single superstep.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Number of active vertices at the start of the iteration.
    pub active_vertices: usize,
    /// Gather-partial messages (mirror → master).
    pub gather_messages: u64,
    /// Vertex-update messages (master → mirror).
    pub update_messages: u64,
    /// Total bytes moved this iteration (headers + payloads).
    pub network_bytes: u64,
    /// Simulated compute nanoseconds per machine this iteration.
    pub machine_compute_ns: Vec<f64>,
    /// Simulated bytes sent+received per machine this iteration.
    pub machine_bytes: Vec<u64>,
    /// Simulated wall-clock nanoseconds of the iteration (barrier model).
    pub wall_ns: f64,
}

impl IterationStats {
    /// Total messages this iteration.
    pub fn messages(&self) -> u64 {
        self.gather_messages + self.update_messages
    }
}

/// Fault accounting of a run executed under a
/// [`FaultPlan`](sgp_fault::FaultPlan) (pause-and-recover model: the
/// computed result is identical to the healthy run; only the cost
/// accounting changes — see `run_program_with`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSummary {
    /// Crash events charged to the run.
    pub crashes: usize,
    /// Master vertices restored from a live mirror's copy.
    pub recovered_vertices: usize,
    /// Master vertices with no mirror, recomputed from scratch.
    pub recomputed_vertices: usize,
    /// Bytes shipped to restore mirrored state.
    pub recovery_bytes: u64,
    /// Simulated nanoseconds spent on crash recovery (state transfer +
    /// recomputation), included in `total_wall_ns`.
    pub recovery_ns: f64,
    /// Extra simulated nanoseconds caused by straggler slowdowns,
    /// included in `total_wall_ns`.
    pub straggler_extra_ns: f64,
}

/// Full report of one engine run — the raw material for Figures 1, 3, 4.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Program name.
    pub program: &'static str,
    /// Number of machines.
    pub machines: usize,
    /// Replication factor of the placement the run used.
    pub replication_factor: f64,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
    /// Cumulative compute nanoseconds per machine (Fig. 4's quantity).
    pub machine_compute_ns: Vec<f64>,
    /// Simulated end-to-end execution time in nanoseconds (Fig. 3's
    /// quantity; excludes partitioning time, as in the paper §5.1.4).
    /// Includes recovery and straggler time when `fault` is set.
    pub total_wall_ns: f64,
    /// Fault accounting; `None` for healthy runs (so healthy report
    /// JSON is unchanged by the robustness subsystem).
    pub fault: Option<FaultSummary>,
}

impl RunReport {
    /// Total messages across all iterations.
    pub fn total_messages(&self) -> u64 {
        self.iterations.iter().map(|i| i.messages()).sum()
    }

    /// Total network bytes across all iterations (Fig. 1's y-axis).
    pub fn total_network_bytes(&self) -> u64 {
        self.iterations.iter().map(|i| i.network_bytes).sum()
    }

    /// Number of supersteps executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Simulated execution time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_wall_ns / 1e9
    }

    /// Five-number summary (min, p25, median, p75, max) of per-machine
    /// compute time in seconds — exactly the box lines of Fig. 4.
    pub fn compute_time_distribution(&self) -> [f64; 5] {
        let mut times: Vec<f64> = self.machine_compute_ns.iter().map(|&t| t / 1e9).collect();
        // sgp-lint: allow(no-panic-in-lib): machine_compute_ns accumulates finite per-op costs, so partial_cmp is total here
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        five_number_summary(&times)
    }
}

/// Five-number summary of a sorted sample.
pub fn five_number_summary(sorted: &[f64]) -> [f64; 5] {
    if sorted.is_empty() {
        return [0.0; 5];
    }
    let q = |frac: f64| {
        let pos = frac * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    };
    [sorted[0], q(0.25), q(0.5), q(0.75), sorted[sorted.len() - 1]]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_stats(gather: u64, update: u64, bytes: u64) -> IterationStats {
        IterationStats {
            active_vertices: 10,
            gather_messages: gather,
            update_messages: update,
            network_bytes: bytes,
            machine_compute_ns: vec![100.0, 200.0],
            machine_bytes: vec![bytes / 2, bytes / 2],
            wall_ns: 1000.0,
        }
    }

    #[test]
    fn report_totals_accumulate() {
        let r = RunReport {
            program: "test",
            machines: 2,
            replication_factor: 1.5,
            iterations: vec![iter_stats(5, 3, 100), iter_stats(2, 1, 50)],
            machine_compute_ns: vec![300.0, 400.0],
            total_wall_ns: 2000.0,
            fault: None,
        };
        assert_eq!(r.total_messages(), 11);
        assert_eq!(r.total_network_bytes(), 150);
        assert_eq!(r.num_iterations(), 2);
        assert!((r.total_seconds() - 2e-6).abs() < 1e-18);
    }

    /// `compute_ns` against one `+=` per operation, edge ops first.
    fn assert_priced_equals_running_sum(edge_ops: u64, applies: u64) {
        let cost = CostModel::default();
        let mut sum = 0.0f64;
        for _ in 0..edge_ops {
            sum += cost.ns_per_edge_op;
        }
        for _ in 0..applies {
            sum += cost.ns_per_apply;
        }
        let priced = cost.compute_ns(edge_ops, applies);
        assert_eq!(priced.to_bits(), sum.to_bits(), "{edge_ops} edge ops, {applies} applies");
    }

    #[test]
    fn priced_counts_equal_a_running_sum_of_the_default_constants() {
        for count in [0, 1, 727_515] {
            assert_priced_equals_running_sum(count, count);
        }
    }

    /// Past 2^35 ns; two billion additions, so only with the release grid.
    #[test]
    #[ignore = "slow unoptimized: cargo test --release -p sgp-engine --lib -- --ignored"]
    fn priced_counts_equal_a_running_sum_at_two_to_the_31() {
        assert_priced_equals_running_sum(1 << 31, 1 << 31);
    }

    #[test]
    fn five_number_summary_basics() {
        let s = five_number_summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(five_number_summary(&[]), [0.0; 5]);
        assert_eq!(five_number_summary(&[7.0]), [7.0; 5]);
    }

    #[test]
    fn distribution_sorted_from_unsorted_machines() {
        let r = RunReport {
            program: "test",
            machines: 3,
            replication_factor: 1.0,
            iterations: vec![],
            machine_compute_ns: vec![3e9, 1e9, 2e9],
            total_wall_ns: 0.0,
            fault: None,
        };
        let d = r.compute_time_distribution();
        assert_eq!(d[0], 1.0);
        assert_eq!(d[4], 3.0);
        assert_eq!(d[2], 2.0);
    }
}
