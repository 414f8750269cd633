//! Discrete-event simulation of the JanusGraph cluster serving
//! closed-loop concurrent clients.
//!
//! The paper measures throughput and latency "under two different
//! scenarios: (i) medium load [...] 12 concurrent clients per worker and
//! the system is at high utilization, and (ii) high load [...] the
//! number of concurrent clients is doubled and system is overloaded"
//! (§6.3.2). This module reproduces that methodology:
//!
//! * each query's machine-level work comes from its real execution
//!   trace ([`crate::query::QueryTrace`]): per communication round, each
//!   touched machine performs `overhead + reads·read_cost` of service;
//! * every machine is a multi-core FIFO server; rounds are scatter/gather
//!   barriers (a round ends when its slowest sub-request finishes);
//! * clients are closed-loop: each issues its next query the moment the
//!   previous one completes.
//!
//! Load imbalance — the paper's central online finding — emerges
//! naturally: a machine owning hot vertices accumulates queue, inflating
//! tail latency (Table 5) and capping aggregate throughput (Fig. 6).
//!
//! This module holds the configuration, the report and the event queue;
//! the event loop itself is [`crate::fault_sim`]'s, and a healthy run is
//! that loop under a plan with no faults.

use crate::fault_sim::{ElasticPlan, FaultRun, FaultSimConfig, MirrorDirectory};
use crate::query::QueryTrace;
use crate::store::PartitionedStore;
use crate::workload::Workload;
use sgp_fault::FaultPlan;
use sgp_trace::NullSink;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The paper's two load scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLevel {
    /// 12 concurrent clients per worker machine — "high utilization".
    Medium,
    /// 24 concurrent clients per worker machine — "overloaded".
    High,
}

impl LoadLevel {
    /// Concurrent closed-loop clients per machine.
    pub fn clients_per_machine(self) -> usize {
        match self {
            LoadLevel::Medium => 12,
            LoadLevel::High => 24,
        }
    }
}

impl std::fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            LoadLevel::Medium => "medium",
            LoadLevel::High => "high",
        })
    }
}

/// Simulation parameters (defaults approximate the paper's 12-core
/// workers; only relative results matter).
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Closed-loop clients per machine.
    pub clients_per_machine: usize,
    /// Cores per machine (parallel servers).
    pub cores_per_machine: usize,
    /// Service nanoseconds per vertex read.
    pub read_service_ns: f64,
    /// Fixed service nanoseconds per sub-request (RPC handling,
    /// deserialization).
    pub request_overhead_ns: f64,
    /// One-way network latency for a remote sub-request, nanoseconds.
    pub half_rtt_ns: f64,
    /// Coordinator-side cost per *remote* sub-request in a round
    /// (request serialization + response merging), nanoseconds. This is
    /// what makes wide scatter-gather fan-outs expensive and reproduces
    /// the paper's Fig. 12 degradation past 16 machines.
    pub fanout_ns: f64,
    /// Maximum cores a single multi-get sub-request fans out over on its
    /// machine (storage engines parallelize batch reads; 1 = serial).
    pub intra_request_parallelism: usize,
    /// Extra service nanoseconds per *remote* read on top of
    /// [`SimConfig::read_service_ns`] (wire serialization on both ends,
    /// kernel crossings) — what makes cut edges expensive.
    pub remote_read_extra_ns: f64,
    /// Queries each client completes (simulation length).
    pub queries_per_client: usize,
    /// Fraction of completions discarded as warm-up ("measurements after
    /// caches are warmed up", §5.2.3).
    pub warmup_fraction: f64,
}

impl SimConfig {
    /// Configuration for one of the paper's load levels.
    pub fn for_load(level: LoadLevel) -> Self {
        SimConfig { clients_per_machine: level.clients_per_machine(), ..Default::default() }
    }
}

// sgp-lint: allow-scope(no-float-accounting): service-time parameters are float nanoseconds by the paper's cost-model convention; every event stamp derived from them is cast to integral ns exactly once
impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clients_per_machine: 12,
            cores_per_machine: 8,
            // Vertex reads dominate service time (Cassandra read path:
            // row lookup + deserialization), as in the paper's clusters.
            read_service_ns: 120_000.0,    // 120 µs per vertex read
            request_overhead_ns: 60_000.0, // 60 µs per RPC
            half_rtt_ns: 250_000.0,        // 0.5 ms round trip
            fanout_ns: 30_000.0,           // 30 µs per remote sub-request
            intra_request_parallelism: 8,
            remote_read_extra_ns: 60_000.0, // 60 µs per remote read
            queries_per_client: 60,
            warmup_fraction: 0.2,
        }
    }
}

/// Results of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Aggregate throughput, queries per second (post-warm-up).
    pub throughput_qps: f64,
    /// Mean latency, milliseconds.
    pub mean_latency_ms: f64,
    /// Median latency, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile latency, milliseconds (Table 5's tail metric).
    pub p99_latency_ms: f64,
    /// Maximum observed latency, milliseconds.
    pub max_latency_ms: f64,
    /// Completed queries counted in the stats.
    pub completed: usize,
    /// Vertices read per machine (post-warm-up) — Fig. 7/15's quantity.
    pub reads_per_machine: Vec<u64>,
    /// Relative standard deviation of `reads_per_machine` — Fig. 8's
    /// load-balance metric.
    pub load_rsd: f64,
    /// Total simulated wall-clock seconds.
    pub sim_seconds: f64,
}

/// A prepared simulation: query traces are collected once and replayed
/// under any [`SimConfig`].
#[derive(Debug, Clone)]
pub struct ClusterSim {
    pub(crate) machines: usize,
    pub(crate) traces: Vec<QueryTrace>,
}

/// Time-ordered event queue with deterministic tie-breaking: events
/// scheduled for the same instant pop in insertion (FIFO) order, via a
/// monotonically increasing sequence number. `BinaryHeap` alone gives
/// no ordering guarantee between equal keys, so without the sequence
/// number same-time events would pop in an arbitrary (payload-derived)
/// order and replays would not be reproducible across refactors.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    /// Keyed by `t << 64 | seq`: one comparison orders by time, then
    /// push order; the key is unique, so the event never decides.
    heap: BinaryHeap<Reverse<(u128, E)>>,
    seq: u64,
}

impl<E: Ord> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `e` at time `t`, after every event already scheduled
    /// at `t`.
    pub(crate) fn push(&mut self, t: u64, e: E) {
        self.seq += 1;
        self.heap.push(Reverse(((t as u128) << 64 | self.seq as u128, e)));
    }

    /// Pops the earliest event; ties resolve in push order.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse((key, e))| ((key >> 64) as u64, e))
    }

    /// The scheduled events in no particular order, each with its
    /// sequence number (ascending in push order).
    pub(crate) fn pending(&self) -> impl Iterator<Item = (u64, &E)> {
        self.heap.iter().map(|Reverse((key, e))| (*key as u64, e))
    }
}

impl ClusterSim {
    /// Executes every binding of `workload` once against `store` to
    /// collect traces (this is also where an
    /// [`crate::workload::AccessRecorder`] would hook in).
    pub fn prepare(store: &PartitionedStore, workload: &Workload) -> Self {
        let traces = crate::workload::run_workload(store, workload, None);
        ClusterSim { machines: store.machines(), traces }
    }

    /// Builds a simulation from pre-collected traces.
    pub fn from_traces(machines: usize, traces: Vec<QueryTrace>) -> Self {
        assert!(!traces.is_empty(), "need at least one trace");
        ClusterSim { machines, traces }
    }

    /// Number of machines in the simulated cluster.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Runs the discrete-event simulation on a healthy cluster: the one
    /// event loop of this crate ([`crate::fault_sim`]) under a plan with
    /// no faults, an edge-cut mirror directory and the default retry
    /// policy, projected onto a [`SimReport`].
    ///
    /// # Panics
    ///
    /// When `cfg` offers no load (`clients_per_machine` or
    /// `queries_per_client` is zero).
    pub fn run(&self, cfg: &SimConfig) -> SimReport {
        assert!(cfg.clients_per_machine > 0 && cfg.queries_per_client > 0);
        let cfg = FaultSimConfig { base: *cfg, ..FaultSimConfig::default() };
        let plan = FaultPlan::healthy(self.machines, 0);
        let mirrors = MirrorDirectory::edge_cut(self.machines);
        FaultRun::new(self, &cfg, &plan, &mirrors, &ElasticPlan::default(), &mut NullSink)
            .execute()
            .healthy_report()
    }
}

/// Relative standard deviation of per-machine loads.
// sgp-lint: allow-scope(no-float-accounting): relative standard deviation is a report statistic over final integral counters
pub(crate) fn rsd(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryResult, RoundTrace};
    use crate::workload::{Skew, Workload, WorkloadKind};
    use sgp_graph::generators::{snb_social, SnbConfig};
    use sgp_graph::StreamOrder;
    use sgp_partition::{partition, Algorithm, PartitionerConfig};

    fn store(k: usize, alg: Algorithm) -> PartitionedStore {
        let g = snb_social(SnbConfig {
            persons: 1500,
            communities: 20,
            avg_friends: 10.0,
            ..SnbConfig::default()
        });
        let cfg = PartitionerConfig::new(k);
        let p = partition(&g, alg, &cfg, StreamOrder::Random { seed: 4 });
        PartitionedStore::new(g, &p)
    }

    fn quick_cfg(clients: usize) -> SimConfig {
        SimConfig { clients_per_machine: clients, queries_per_client: 25, ..Default::default() }
    }

    #[test]
    fn simulation_completes_all_queries() {
        let s = store(4, Algorithm::EcrHash);
        let w = Workload::generate(s.graph(), WorkloadKind::OneHop, 200, Skew::Uniform, 1);
        let sim = ClusterSim::prepare(&s, &w);
        let cfg = quick_cfg(4);
        let r = sim.run(&cfg);
        let total = cfg.clients_per_machine * 4 * cfg.queries_per_client;
        let warmup = (total as f64 * cfg.warmup_fraction) as usize;
        assert_eq!(r.completed, total - warmup);
        assert!(r.throughput_qps > 0.0);
        assert!(r.mean_latency_ms > 0.0);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let s = store(4, Algorithm::EcrHash);
        let w = Workload::generate(s.graph(), WorkloadKind::OneHop, 200, Skew::Uniform, 2);
        let sim = ClusterSim::prepare(&s, &w);
        let r = sim.run(&quick_cfg(8));
        assert!(r.p50_latency_ms <= r.p99_latency_ms);
        assert!(r.p99_latency_ms <= r.max_latency_ms);
        assert!(r.p50_latency_ms > 0.0);
    }

    #[test]
    fn higher_load_raises_latency() {
        let s = store(4, Algorithm::EcrHash);
        let w = Workload::generate(s.graph(), WorkloadKind::OneHop, 400, Skew::Uniform, 3);
        let sim = ClusterSim::prepare(&s, &w);
        let medium = sim.run(&quick_cfg(LoadLevel::Medium.clients_per_machine()));
        let high = sim.run(&quick_cfg(LoadLevel::High.clients_per_machine()));
        assert!(
            high.mean_latency_ms > medium.mean_latency_ms,
            "overload must raise latency: {} vs {}",
            high.mean_latency_ms,
            medium.mean_latency_ms
        );
    }

    #[test]
    fn deterministic_replay() {
        let s = store(2, Algorithm::EcrHash);
        let w = Workload::generate(s.graph(), WorkloadKind::OneHop, 100, Skew::Uniform, 5);
        let sim = ClusterSim::prepare(&s, &w);
        let a = sim.run(&quick_cfg(4));
        let b = sim.run(&quick_cfg(4));
        assert_eq!(a.completed, b.completed);
        assert!((a.throughput_qps - b.throughput_qps).abs() < 1e-9);
        assert!((a.p99_latency_ms - b.p99_latency_ms).abs() < 1e-9);
    }

    #[test]
    fn skewed_workload_imbalances_reads() {
        let s = store(8, Algorithm::Fennel);
        let uniform = Workload::generate(s.graph(), WorkloadKind::OneHop, 500, Skew::Uniform, 6);
        let skewed =
            Workload::generate(s.graph(), WorkloadKind::OneHop, 500, Skew::Zipf { theta: 1.1 }, 6);
        let ru = ClusterSim::prepare(&s, &uniform).run(&quick_cfg(4));
        let rs = ClusterSim::prepare(&s, &skewed).run(&quick_cfg(4));
        assert!(
            rs.load_rsd > ru.load_rsd,
            "Zipf workload should imbalance reads: {} vs {}",
            rs.load_rsd,
            ru.load_rsd
        );
    }

    #[test]
    fn synthetic_single_round_trace() {
        // One query, one machine, fixed service: latency must equal
        // overhead + one read.
        let trace = QueryTrace {
            coordinator: 0,
            rounds: vec![RoundTrace { reads: vec![1] }],
            result: QueryResult::Vertices(vec![]),
        };
        let sim = ClusterSim::from_traces(1, vec![trace]);
        let cfg = SimConfig {
            clients_per_machine: 1,
            cores_per_machine: 1,
            queries_per_client: 10,
            warmup_fraction: 0.0,
            ..Default::default()
        };
        let r = sim.run(&cfg);
        let expected_ms = (cfg.request_overhead_ns + cfg.read_service_ns) / 1e6;
        assert!(
            (r.mean_latency_ms - expected_ms).abs() < 1e-6,
            "latency {} expected {expected_ms}",
            r.mean_latency_ms
        );
    }

    #[test]
    fn queueing_kicks_in_with_one_core() {
        // Two clients, one single-core machine: second query waits.
        let trace = QueryTrace {
            coordinator: 0,
            rounds: vec![RoundTrace { reads: vec![4] }],
            result: QueryResult::Vertices(vec![]),
        };
        let sim = ClusterSim::from_traces(1, vec![trace]);
        let base = SimConfig {
            clients_per_machine: 1,
            cores_per_machine: 1,
            queries_per_client: 20,
            warmup_fraction: 0.1,
            ..Default::default()
        };
        let solo = sim.run(&base);
        let crowded = sim.run(&SimConfig { clients_per_machine: 4, ..base });
        assert!(
            crowded.mean_latency_ms > 1.9 * solo.mean_latency_ms,
            "4 clients on 1 core must queue: {} vs {}",
            crowded.mean_latency_ms,
            solo.mean_latency_ms
        );
    }

    #[test]
    fn rsd_of_balanced_loads_is_zero() {
        assert!(rsd(&[10, 10, 10]) < 1e-12);
        assert!(rsd(&[20, 0]) > 0.9);
        assert_eq!(rsd(&[]), 0.0);
    }

    #[test]
    fn event_queue_breaks_time_ties_in_push_order() {
        // Same-time events must pop exactly in insertion order — the
        // determinism guarantee every replay in this crate rests on.
        let mut q: EventQueue<u32> = EventQueue::new();
        for client in (0..50u32).rev() {
            q.push(7_777, client);
        }
        q.push(7_776, 99);
        // `pending` lists everything scheduled, numbered in push order.
        let mut pending: Vec<(u64, u32)> = q.pending().map(|(seq, &e)| (seq, e)).collect();
        pending.sort_unstable();
        let pushed: Vec<u32> = (0..50u32).rev().chain([99]).collect();
        assert_eq!(pending.iter().map(|&(_, e)| e).collect::<Vec<_>>(), pushed);
        assert_eq!(q.pop(), Some((7_776, 99)));
        let mut popped = Vec::new();
        while let Some((t, client)) = q.pop() {
            assert_eq!(t, 7_777);
            popped.push(client);
        }
        let expected: Vec<u32> = (0..50u32).rev().collect();
        assert_eq!(popped, expected, "ties must resolve FIFO, not by payload order");
    }

    #[test]
    fn single_server_matches_its_closed_form() {
        // One single-core machine, N closed-loop clients, one local read
        // per query: the server is never idle and FIFO, so once every
        // client has completed its first query (issued 1 us apart) each
        // query is issued with N - 1 ahead of it and takes exactly N
        // service times, and the machine completes one query per
        // service time.
        let trace = QueryTrace {
            coordinator: 0,
            rounds: vec![RoundTrace { reads: vec![1] }],
            result: QueryResult::Vertices(vec![]),
        };
        let sim = ClusterSim::from_traces(1, vec![trace]);
        for clients in [1usize, 2, 4, 7] {
            let cfg = SimConfig {
                clients_per_machine: clients,
                cores_per_machine: 1,
                queries_per_client: 10,
                warmup_fraction: 0.2,
                ..Default::default()
            };
            let r = sim.run(&cfg);
            let service_ns = (cfg.request_overhead_ns + cfg.read_service_ns) as u64;
            let latency_ms = (clients as u64 * service_ns) as f64 / 1e6;
            assert_eq!(r.completed, clients * 8);
            // Mean == max pins every counted latency, not just the tail.
            assert_eq!(r.max_latency_ms, latency_ms, "{clients} clients");
            assert_eq!(r.mean_latency_ms, latency_ms, "{clients} clients");
            let service_rate = 1e9 / service_ns as f64;
            assert!(
                (r.throughput_qps / service_rate - 1.0).abs() < 1e-9,
                "{clients} clients: {} q/s, expected {service_rate}",
                r.throughput_qps
            );
            assert_eq!(r.reads_per_machine, vec![clients as u64 * 8]);
        }
    }

    #[test]
    fn zero_machine_cluster_reports_an_empty_run() {
        // No machines means no clients: `run` answers with the empty
        // report it always has, where the general entry returns
        // `SimError::NoMachines`.
        let trace = QueryTrace {
            coordinator: 0,
            rounds: vec![RoundTrace { reads: vec![1] }],
            result: QueryResult::Vertices(vec![]),
        };
        let r = ClusterSim::from_traces(0, vec![trace]).run(&SimConfig::default());
        assert_eq!(r.completed, 0);
        assert_eq!(r.throughput_qps, 0.0);
        assert_eq!((r.mean_latency_ms, r.p99_latency_ms, r.max_latency_ms), (0.0, 0.0, 0.0));
        assert!(r.reads_per_machine.is_empty());
        assert_eq!((r.load_rsd, r.sim_seconds), (0.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn empty_load_panics() {
        let s = store(2, Algorithm::EcrHash);
        let w = Workload::generate(s.graph(), WorkloadKind::OneHop, 10, Skew::Uniform, 1);
        ClusterSim::prepare(&s, &w).run(&SimConfig { queries_per_client: 0, ..quick_cfg(1) });
    }
}
