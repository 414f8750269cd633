//! # streaming-graph-partitioning
//!
//! A from-scratch Rust reproduction of **"Experimental Analysis of
//! Streaming Algorithms for Graph Partitioning"** (Anil Pacaci &
//! M. Tamer Özsu, SIGMOD 2019).
//!
//! The workspace implements every algorithm the study compares and both
//! execution substrates it measures on:
//!
//! * **Partitioners** ([`partition`]): edge-cut streaming (hash, LDG,
//!   FENNEL, re-streaming variants), vertex-cut streaming (hash, DBH,
//!   Grid, PowerGraph greedy, HDRF), hybrid-cut (hybrid random, Ginger)
//!   and a from-scratch multilevel offline baseline (METIS-like).
//! * **Analytics engine** ([`engine`]): a PowerLyra-like GAS engine
//!   simulator running real PageRank / WCC / SSSP over k simulated
//!   machines with faithful master/mirror communication accounting.
//! * **Graph database** ([`db`]): a JanusGraph-like partitioned
//!   adjacency store with a query router, online queries (1-hop, 2-hop,
//!   shortest path) and a discrete-event cluster simulation for
//!   throughput/latency under concurrent load.
//! * **Datasets** ([`graph`]): deterministic generators standing in for
//!   Twitter, UK2007-05, USA-Road and LDBC SNB.
//! * **Experiments** ([`core`]): suite runners and the paper's decision
//!   tree; the `experiments` binary in `crates/bench` regenerates every
//!   table and figure.
//! * **Fault injection** ([`fault`]): seeded, schema-versioned fault
//!   plans (crashes, stragglers, message loss) that both substrates
//!   replay deterministically — the robustness suite's foundation.
//! * **Observability** ([`trace`]): the deterministic spans / counters /
//!   histograms layer (DESIGN.md §9) — every partitioner, the engine,
//!   and both cluster simulators emit events stamped with simulated
//!   time or logical sequence numbers, never wallclock.
//!
//! ## Quickstart
//!
//! ```
//! use streaming_graph_partitioning::prelude::*;
//!
//! // Generate a Twitter-like graph and partition it with HDRF.
//! let graph = Dataset::Twitter.generate(Scale::Tiny);
//! let config = PartitionerConfig::new(8);
//! let partitioning = partition(&graph, Algorithm::Hdrf, &config, StreamOrder::default());
//!
//! // Structural quality (Fig. 2's metric).
//! let rf = replication_factor(&graph, &partitioning);
//! assert!(rf >= 1.0 && rf <= 8.0);
//!
//! // Run PageRank on a simulated 8-machine cluster (Fig. 1/3).
//! let placement = Placement::build(&graph, &partitioning);
//! let (ranks, report) = run_program(&graph, &placement, &PageRank::new(5), &EngineOptions::default());
//! assert_eq!(ranks.len(), graph.num_vertices());
//! assert!(report.total_messages() > 0);
//!
//! // `partition` and `run_program` are the untraced, healthy calls of one
//! // general entry per layer; the sink and the fault plan are values.
//! let mut sink = CollectingSink::new();
//! let order = StreamOrder::default();
//! let run = Run { algorithm: Algorithm::Hdrf, cfg: &config, order, exec: Exec::Sequential };
//! let traced = run.execute(&graph, &mut sink).expect("sequential runs are never refused");
//! assert_eq!(traced.edge_parts, partitioning.edge_parts);
//! let plan = FaultPlan::healthy(8, 1).with_crash(2, 0);
//! let opts = EngineOptions::default();
//! let (_, faulted) =
//!     run_program_with(&graph, &placement, &PageRank::new(5), &opts, Some(&plan), &mut sink)
//!         .expect("the plan fits the placement");
//! assert!(faulted.total_wall_ns > report.total_wall_ns);
//! assert_eq!(sink.counter_total("engine.fault_crashes"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sgp_core as core;
pub use sgp_db as db;
pub use sgp_engine as engine;
pub use sgp_fault as fault;
pub use sgp_graph as graph;
pub use sgp_partition as partition;
pub use sgp_trace as trace;

/// Convenient re-exports of the most used items across the workspace.
pub mod prelude {
    pub use sgp_core::config::{Dataset, Scale};
    pub use sgp_core::decision::{recommend, OnlineObjective, WorkloadClass};
    pub use sgp_core::runners::{
        self, churn_suite, ChurnMethod, ChurnRow, ChurnSuiteConfig, OfflineWorkload,
    };
    pub use sgp_db::workload::Skew;
    pub use sgp_db::{
        ClusterSim, DegradedConfig, ElasticPlan, FaultSimConfig, LoadLevel, MirrorDirectory,
        PartitionedStore, Query, SimConfig, SimError, Workload, WorkloadKind,
    };
    pub use sgp_engine::apps::{PageRank, Sssp, Wcc};
    pub use sgp_engine::{run_program, run_program_with, EngineError, EngineOptions, Placement};
    pub use sgp_fault::{FaultPlan, FaultPlanConfig, MembershipKind, RetryPolicy};
    pub use sgp_graph::{
        ChurnConfig, ChurnStream, Edge, EdgeStreamSource, Graph, GraphBuilder, StreamOrder,
        VertexId, VertexStreamSource,
    };
    pub use sgp_partition::metrics::{edge_cut_ratio, load_imbalance, replication_factor};
    pub use sgp_partition::{
        cut_edges, partition, partition_multi_loader, partition_threaded, plan_rebalance,
        restream_rounds, run_edge_stream, run_vertex_stream, Algorithm, CutModel, Exec,
        LoaderConfig, MigrationConfig, MigrationPlan, MigrationStrategy, PartitionerConfig,
        Partitioning, RestreamOutcome, Run, RunError, SnapshotError, StreamInput,
        StreamingPartitioner,
    };
    pub use sgp_trace::{CollectingSink, NullSink, SummarySink, TraceSink};
}
