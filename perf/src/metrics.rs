//! The benchmark's metric tables — the same names, units and directions
//! `BENCHMARK.json` declares (`tests/contract.rs` keeps them in step) —
//! and the order statistics every reported number goes through.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// An exact count or ratio that repeats bit for bit on one seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, exact: true }
}

use Better::{Higher, Lower};

/// Metrics a user of the pipeline sees, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    timing("setup_s", "s", Lower),
    timing("iter_wall_s", "s", Lower),
    timing("work_per_s", "1/s", Higher),
    timing("peak_rss_mib", "MiB", Lower),
];

/// Metrics of single layers, from the traced run. A workload reports 0
/// for a metric whose layer is not on its path.
pub const PER_LAYER: &[MetricDef] = &[
    // sgp-graph
    timing("graph.generate.edges_per_s", "1/s", Higher),
    timing("graph.edge_source.elements_per_s", "1/s", Higher),
    timing("graph.vertex_source.records_per_s", "1/s", Higher),
    // sgp-partition: whole cell, then kernel only
    timing("partition.VCR.elements_per_s", "1/s", Higher),
    timing("partition.Grid.elements_per_s", "1/s", Higher),
    timing("partition.DBH.elements_per_s", "1/s", Higher),
    timing("partition.PGG.elements_per_s", "1/s", Higher),
    timing("partition.HDRF.elements_per_s", "1/s", Higher),
    timing("partition.2PS.elements_per_s", "1/s", Higher),
    timing("partition.HCR.elements_per_s", "1/s", Higher),
    timing("partition.HG.elements_per_s", "1/s", Higher),
    timing("partition.ECR.elements_per_s", "1/s", Higher),
    timing("partition.LDG.elements_per_s", "1/s", Higher),
    timing("partition.FNL.elements_per_s", "1/s", Higher),
    timing("partition.reLDG.elements_per_s", "1/s", Higher),
    timing("partition.reFNL.elements_per_s", "1/s", Higher),
    timing("partition.VCR.ingest_ns_per_element", "ns", Lower),
    timing("partition.Grid.ingest_ns_per_element", "ns", Lower),
    timing("partition.DBH.ingest_ns_per_element", "ns", Lower),
    timing("partition.PGG.ingest_ns_per_element", "ns", Lower),
    timing("partition.HDRF.ingest_ns_per_element", "ns", Lower),
    timing("partition.2PS.ingest_ns_per_element", "ns", Lower),
    timing("partition.HCR.ingest_ns_per_element", "ns", Lower),
    timing("partition.HG.ingest_ns_per_element", "ns", Lower),
    timing("partition.ECR.ingest_ns_per_element", "ns", Lower),
    timing("partition.LDG.ingest_ns_per_element", "ns", Lower),
    timing("partition.FNL.ingest_ns_per_element", "ns", Lower),
    timing("partition.reLDG.ingest_ns_per_element", "ns", Lower),
    timing("partition.reFNL.ingest_ns_per_element", "ns", Lower),
    timing("partition.init_s", "s", Lower),
    timing("partition.seal_s", "s", Lower),
    timing("partition.quality_measure_s", "s", Lower),
    exact("partition.HDRF.replication_factor", "ratio", Lower),
    exact("partition.DBH.replication_factor", "ratio", Lower),
    exact("partition.HG.replication_factor", "ratio", Lower),
    exact("partition.LDG.edge_cut_ratio", "ratio", Lower),
    exact("partition.FNL.edge_cut_ratio", "ratio", Lower),
    exact("partition.MTS.edge_cut_ratio", "ratio", Lower),
    exact("partition.reFNL.load_imbalance", "ratio", Lower),
    // sgp-partition: offline multilevel baseline
    timing("partition.MTS.powerlaw_edges_per_s", "1/s", Higher),
    timing("partition.MTS.lattice_edges_per_s", "1/s", Higher),
    // sgp-partition: threaded and modelled loaders, traced run only
    timing("partition.exec.threads2_over_seq.HDRF", "ratio", Lower),
    timing("partition.exec.threads2_over_seq.LDG", "ratio", Lower),
    timing("partition.loaders.l4_over_seq.HDRF", "ratio", Lower),
    // sgp-engine
    timing("engine.placement.edges_per_s", "1/s", Higher),
    timing("engine.placement_road.edges_per_s", "1/s", Higher),
    timing("engine.pagerank.supersteps_per_s", "1/s", Higher),
    timing("engine.wcc.supersteps_per_s", "1/s", Higher),
    timing("engine.sssp.supersteps_per_s", "1/s", Higher),
    timing("engine.sssp_road.us_per_superstep", "us", Lower),
    exact("engine.sssp_road.supersteps", "count", Lower),
    exact("engine.pagerank.messages.ECR", "count", Lower),
    exact("engine.pagerank.messages.DBH", "count", Lower),
    exact("engine.pagerank.messages.HCR", "count", Lower),
    exact("engine.reference_mismatches", "count", Lower),
    // sgp-db
    timing("db.store_build_s", "s", Lower),
    timing("db.mirror_directory_build_s", "s", Lower),
    timing("db.workload_generate_s", "s", Lower),
    timing("db.query_exec.onehop_queries_per_s", "1/s", Higher),
    timing("db.query_exec.twohop_queries_per_s", "1/s", Higher),
    timing("db.des.healthy.onehop_queries_per_s", "1/s", Higher),
    timing("db.des.healthy.twohop_queries_per_s", "1/s", Higher),
    timing("db.des.faulted.onehop_queries_per_s", "1/s", Higher),
    timing("db.des.faulted.twohop_queries_per_s", "1/s", Higher),
    timing("db.des.empty_plan_over_healthy", "ratio", Lower),
    exact("db.des.faulted.retries", "count", Lower),
    exact("db.des.faulted.failovers", "count", Higher),
    exact("db.des.faulted.availability", "ratio", Higher),
    exact("db.des.healthy.sim_p99_ms", "ms", Lower),
    // harness
    timing("bench.tracing_overhead_pct", "%", Lower),
    timing("bench.iterations", "count", Higher),
];

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile range as a percentage of the median, with the
/// quartiles Python's `statistics.quantiles(values, n=4)` gives (the
/// driver's spread rule); 0 with fewer than two values.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let quantile = |i: usize| {
        // "exclusive" method: position i·(n+1)/4, clamped into the data.
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        100.0 * (quantile(3) - quantile(1)) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_pct(&v) - 100.0 * (8.25 - 2.75) / 5.5).abs() < 1e-9);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_pct(&[1.0, 2.0]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(PER_LAYER.len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
