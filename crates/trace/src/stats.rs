//! Exact latency statistics of the `sgp-db` simulator's reports.
//!
//! The float operation order is fixed: every checked-in report (and
//! `results_small.txt`) is byte-identical only under it.

/// Rank-selected percentile of a **sorted** nanosecond sample, as f64.
///
/// Convention: `idx = round((n - 1) · p)`, the same rank the log₂
/// histogram estimate ([`crate::Log2Histogram::quantile`]) targets.
/// Returns 0.0 on an empty sample; `p` is clamped into the valid index
/// range.
pub fn percentile_sorted_ns(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted.get(idx.min(sorted.len() - 1)).copied().unwrap_or(0) as f64
}

/// Mean/p50/p99/max of a latency sample, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Maximum latency, ms.
    pub max_ms: f64,
}

/// Sorts `latencies_ns` in place and summarizes it in milliseconds.
///
/// All zeros on an empty sample.
pub fn latency_summary_ms(latencies_ns: &mut [u64]) -> LatencySummary {
    latencies_ns.sort_unstable();
    let measured = latencies_ns.len().max(1) as f64;
    let mean_ns = latencies_ns.iter().sum::<u64>() as f64 / measured;
    LatencySummary {
        mean_ms: mean_ns / 1e6,
        p50_ms: percentile_sorted_ns(latencies_ns, 0.50) / 1e6,
        p99_ms: percentile_sorted_ns(latencies_ns, 0.99) / 1e6,
        max_ms: match latencies_ns.last() {
            Some(&l) => l as f64 / 1e6,
            None => 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_rank_convention() {
        let sorted: Vec<u64> = (0..101).collect();
        assert_eq!(percentile_sorted_ns(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted_ns(&sorted, 0.5), 50.0);
        assert_eq!(percentile_sorted_ns(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted_ns(&sorted, 1.0), 100.0);
        assert_eq!(percentile_sorted_ns(&[], 0.5), 0.0);
        // Out-of-range p never panics.
        assert_eq!(percentile_sorted_ns(&sorted, 2.0), 100.0);
    }

    #[test]
    fn summary_matches_the_legacy_inline_computation() {
        // Mirrors the expressions previously inlined in sim.rs /
        // fault_sim.rs, bit for bit.
        let mut lat: Vec<u64> = vec![5_000_000, 1_000_000, 3_000_000, 9_000_000];
        let s = latency_summary_ms(&mut lat);
        let mut reference = vec![5_000_000u64, 1_000_000, 3_000_000, 9_000_000];
        reference.sort_unstable();
        let measured = reference.len().max(1) as f64;
        let mean_ns = reference.iter().sum::<u64>() as f64 / measured;
        let pct = |p: f64| -> f64 {
            let idx = ((reference.len() - 1) as f64 * p).round() as usize;
            reference[idx] as f64
        };
        assert_eq!(s.mean_ms.to_bits(), (mean_ns / 1e6).to_bits());
        assert_eq!(s.p50_ms.to_bits(), (pct(0.50) / 1e6).to_bits());
        assert_eq!(s.p99_ms.to_bits(), (pct(0.99) / 1e6).to_bits());
        assert_eq!(s.max_ms.to_bits(), (9_000_000f64 / 1e6).to_bits());
    }

    #[test]
    fn empty_summary_is_zero() {
        let mut empty: Vec<u64> = vec![];
        let s = latency_summary_ms(&mut empty);
        assert_eq!(s, LatencySummary { mean_ms: 0.0, p50_ms: 0.0, p99_ms: 0.0, max_ms: 0.0 });
    }
}
