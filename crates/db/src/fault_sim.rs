//! The discrete-event loop of [`crate::sim::ClusterSim`], run under a
//! deterministic [`FaultPlan`] — machine crashes (with optional
//! recovery), straggler slowdowns, membership changes and seeded message
//! loss on cross-machine traffic. It is the crate's only event loop: a
//! healthy run ([`ClusterSim::run`]) is this loop under a plan with no
//! faults.
//!
//! The coordinator reacts to a lost or unanswered sub-request with a
//! timeout, then re-sends after an exponentially growing, capped
//! backoff ([`RetryPolicy`]). A sub-request aimed at a dead machine
//! fails over to a live **mirror** when the partitioning provides one:
//! vertex-cut and hybrid-cut placements replicate vertices across the
//! machines holding their incident edges, so a [`MirrorDirectory`]
//! built from such a [`Partitioning`] offers high failover coverage;
//! the edge-cut store (JanusGraph keeps a single copy of each vertex)
//! offers none, so its queries ride the retry loop until the machine
//! recovers — or fail. That asymmetry is the availability result this
//! module exists to measure (DESIGN.md §7).
//!
//! Every random decision — message drops, failover draws — is a
//! counter-keyed function of the plan seed, so a run under a fixed
//! plan is bit-for-bit reproducible.
//!
//! A round's sub-request to a machine is split into up to
//! `intra_request_parallelism` shares, each served and failed on its
//! own. Shares sent back to back that arrive at one machine at one
//! instant travel as one *arrival run*: one `SubArrive` whose handler
//! takes the members in send order, which replays exactly as one event
//! per share would (DESIGN.md §7). Completions stay one event per
//! share.
#![expect(
    clippy::indexing_slicing,
    reason = "machine ids index per-machine tables sized by the fixed cluster size at construction; replica ids come from the placement map built over the same cluster"
)]
#![warn(clippy::float_arithmetic, clippy::cast_precision_loss)]

use crate::sim::{rsd, ClusterSim, EventQueue, SimConfig, SimReport};
use sgp_fault::{FaultEvent, FaultPlan, MembershipKind, PlanError, RetryPolicy};
use sgp_graph::Graph;
use sgp_partition::{CutModel, Partitioning};
use sgp_trace::{keys, latency_summary_ms, NullSink, TraceSink};
use std::collections::VecDeque;

/// Why a fault-injected simulation could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cluster has zero machines.
    NoMachines,
    /// Every machine is permanently dead from t = 0: the plan leaves
    /// nothing to serve even one request.
    NoLiveMachines,
    /// The plan was written for a different cluster size.
    ClusterMismatch {
        /// Machines the plan covers.
        plan: usize,
        /// Machines in the simulated cluster.
        cluster: usize,
    },
    /// The plan failed its own validation.
    InvalidPlan(PlanError),
    /// The mirror directory was built for a different cluster size.
    MirrorMismatch {
        /// Machines the directory covers.
        mirrors: usize,
        /// Machines in the simulated cluster.
        cluster: usize,
    },
    /// Nothing to replay: `clients_per_machine` or `queries_per_client`
    /// is zero, or the simulation holds no query traces (it was
    /// prepared from a workload without queries).
    NoLoad,
    /// The retry policy allows no attempt at all (`max_attempts == 0`).
    NoAttempts,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoMachines => write!(f, "cluster has zero machines"),
            SimError::NoLiveMachines => {
                write!(f, "every machine is permanently dead from t=0; nothing can serve")
            }
            SimError::ClusterMismatch { plan, cluster } => {
                write!(f, "fault plan covers {plan} machines but the cluster has {cluster}")
            }
            SimError::InvalidPlan(e) => write!(f, "invalid fault plan: {e}"),
            SimError::MirrorMismatch { mirrors, cluster } => {
                write!(
                    f,
                    "mirror directory covers {mirrors} machines but the cluster has {cluster}"
                )
            }
            SimError::NoLoad => {
                write!(f, "no load: zero clients per machine or queries per client, or no traces")
            }
            SimError::NoAttempts => write!(f, "retry policy allows zero attempts per sub-request"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for SimError {
    fn from(e: PlanError) -> Self {
        SimError::InvalidPlan(e)
    }
}

/// Where reads of a machine's vertices can fail over when it dies.
///
/// Built once per (graph, partitioning). `coverage[m]` is the fraction
/// of vertices *mastered* on machine `m` that have at least one replica
/// elsewhere — the probability a random read of `m`'s data can be
/// served by a mirror. `peers[m]` ranks the machines holding those
/// replicas (most replicas first, ties by machine id), and failover
/// picks the first live one.
#[derive(Debug, Clone)]
pub struct MirrorDirectory {
    coverage: Vec<f64>,
    peers: Vec<Vec<u32>>,
}

impl MirrorDirectory {
    /// Directory for an edge-cut store: JanusGraph keeps a single copy
    /// of every vertex, so no machine's data survives its crash.
    pub fn edge_cut(machines: usize) -> Self {
        MirrorDirectory { coverage: vec![0.0; machines], peers: vec![Vec::new(); machines] }
    }

    /// Directory derived from a replicating (vertex-cut or hybrid-cut)
    /// partitioning: every machine holding an edge incident to a vertex
    /// holds a replica of that vertex.
    pub(crate) fn from_partitioning(g: &Graph, p: &Partitioning) -> Self {
        let k = p.k;
        let masters = p.masters(g);
        let sets = p.replica_sets(g);
        let mut mastered = vec![0u64; k];
        let mut mirrored = vec![0u64; k];
        let mut peer_counts = vec![vec![0u64; k]; k];
        for (v, &m) in masters.iter().enumerate() {
            let m = m as usize;
            mastered[m] += 1;
            let mut has_mirror = false;
            for &r in &sets[v] {
                if r as usize != m {
                    has_mirror = true;
                    peer_counts[m][r as usize] += 1;
                }
            }
            if has_mirror {
                mirrored[m] += 1;
            }
        }
        #[expect(
            clippy::float_arithmetic,
            clippy::cast_precision_loss,
            reason = "mirror coverage is a ratio in [0,1], not simulated time"
        )]
        let coverage = (0..k)
            .map(|m| if mastered[m] == 0 { 0.0 } else { mirrored[m] as f64 / mastered[m] as f64 })
            .collect();
        let peers = peer_counts
            .into_iter()
            .map(|counts| {
                let mut ranked: Vec<u32> = counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(p, _)| p as u32)
                    .collect();
                ranked.sort_by_key(|&p| (std::cmp::Reverse(counts[p as usize]), p));
                ranked
            })
            .collect();
        MirrorDirectory { coverage, peers }
    }

    /// Directory matching the partitioning's cut model: replication for
    /// vertex-cut and hybrid-cut, none for edge-cut.
    pub fn for_model(g: &Graph, p: &Partitioning) -> Self {
        match p.model {
            CutModel::EdgeCut => MirrorDirectory::edge_cut(p.k),
            CutModel::VertexCut | CutModel::HybridCut => MirrorDirectory::from_partitioning(g, p),
        }
    }

    /// Number of machines the directory covers.
    pub(crate) fn machines(&self) -> usize {
        self.coverage.len()
    }

    /// Fraction of `machine`'s mastered vertices that have a mirror.
    pub(crate) fn coverage(&self, machine: u32) -> f64 {
        self.coverage[machine as usize]
    }

    /// First live mirror machine for data mastered on `machine`.
    pub(crate) fn failover_target(&self, machine: u32, is_up: impl Fn(u32) -> bool) -> Option<u32> {
        self.peers[machine as usize].iter().copied().find(|&p| is_up(p))
    }
}

/// Configuration of a fault-injected run: the healthy DES parameters
/// plus the coordinator's retry policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSimConfig {
    /// Parameters shared with the healthy simulation.
    pub base: SimConfig,
    /// Timeout / retry / backoff behaviour of the coordinator.
    pub retry: RetryPolicy,
    /// Degraded-mode behaviour during recovery and migration. Defaults
    /// to fully off, so plain fault runs are byte-identical to before
    /// the elasticity layer existed.
    pub degraded: DegradedConfig,
}

/// How the cluster degrades while a membership change is being repaired
/// (DESIGN.md §11). Both knobs default to "off"/free so that runs
/// without membership events — and old callers that never set them —
/// behave exactly as before.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradedConfig {
    /// Queue depth at which a machine sheds (fast-rejects) new shares
    /// while migration is in flight. `0` disables admission control.
    pub shed_queue_depth: usize,
    /// Simulated nanoseconds charged per migrated record — the DES cost
    /// of shipping one vertex or adjacency entry during rebalance.
    pub migration_ns_per_record: u64,
}

/// The migration work a fault plan's membership events oblige, computed
/// by the caller (who holds the graph and partitioning — the DES sees
/// only query traces) with `sgp_partition::plan_rebalance` and charged
/// to the cost model here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElasticPlan {
    /// Records each membership event moves, aligned with the plan's
    /// membership events in schedule order. Events beyond the end of the
    /// vector move nothing.
    pub records_per_event: Vec<u64>,
}

/// Results of one fault-injected run.
#[derive(Debug, Clone)]
pub struct FaultSimReport {
    /// Fraction of post-warm-up queries that completed successfully.
    pub availability: f64,
    /// Successful queries per second (post-warm-up).
    pub goodput_qps: f64,
    /// All query completions (successes + failures) per second — the
    /// load the clients offered.
    pub offered_qps: f64,
    /// Successful post-warm-up completions.
    pub completed_ok: usize,
    /// Failed post-warm-up completions.
    pub failed: usize,
    /// Sub-request re-sends over the whole run.
    pub retries: u64,
    /// Cross-machine messages dropped by the plan over the whole run.
    pub dropped_messages: u64,
    /// Sub-requests redirected to a live mirror over the whole run.
    pub failovers: u64,
    /// Mean latency of successful queries, milliseconds.
    pub mean_latency_ms: f64,
    /// Median latency of successful queries, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile latency of successful queries, milliseconds.
    pub p99_latency_ms: f64,
    /// Maximum latency of successful queries, milliseconds.
    pub max_latency_ms: f64,
    /// Vertex reads routed to each machine over the whole run,
    /// including retried work.
    pub reads_per_machine: Vec<u64>,
    /// Relative standard deviation of `reads_per_machine`.
    pub load_rsd: f64,
    /// Total simulated wall-clock seconds.
    pub sim_seconds: f64,
    /// Recovery time objective: the longest interval, in milliseconds,
    /// from a membership disruption to full service restored (machine
    /// back up and its migration drained). `0` when the plan has no
    /// membership events.
    pub rto_ms: f64,
    /// Migration records shipped over all membership events.
    pub data_moved: u64,
    /// Shares fast-rejected by admission control while the cluster was
    /// in degraded mode.
    pub shed_queries: u64,
}

/// Events of the DES. Shares are named by their id in the run's share
/// slab and membership changes by their index in the plan, so an event
/// is three words and sending, failing or re-sending a share never
/// copies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A client becomes ready to issue its next query.
    Issue { client: u32 },
    /// An arrival run reaches (routed) `machine`: `share` and the shares
    /// linked after it through [`Share::next`], in send order.
    SubArrive { share: u32, machine: u32 },
    /// A core of `machine` finishes a share; stale if `epoch` mismatches.
    SubDone { share: u32, machine: u32, epoch: u32 },
    /// The coordinator declares a share lost.
    SubFail { share: u32 },
    /// `machine` crashes, losing queued and in-service work.
    Crash { machine: u32 },
    /// `machine` rejoins with an empty queue.
    Recover { machine: u32 },
    /// The membership change `plan.events[event]` takes effect: a
    /// scale-out machine comes online, a scale-in machine leaves for
    /// good, or a crash-rejoin machine returns.
    Membership { event: u32 },
}

/// One sub-request share of a query's current round. `origin` is the
/// machine the trace *intended* (where the data is mastered): re-sends
/// re-route from it, so a share that failed over keeps retrying against
/// the original owner once it recovers.
#[derive(Debug, Clone, Copy)]
struct Share {
    query: u32,
    origin: u32,
    reads: u32,
    attempt: u32,
    /// The share after this one in its arrival run, or [`NO_SHARE`].
    /// Written when the share is sent and read only when its run
    /// arrives: until then the share has no other pending event, so
    /// nothing re-sends it or releases its id.
    next: u32,
    service_ns: u64,
}

/// The end of an arrival run.
const NO_SHARE: u32 = u32::MAX;

/// Where a sent share goes: it arrives at `machine` at `at`, or its
/// message is dropped and the coordinator declares it lost at `at`.
enum Launch {
    Arrive { at: u64, machine: u32 },
    Fail { at: u64 },
}

/// Shares sent back to back that arrive at one machine at one instant,
/// linked from `head` to `tail` through [`Share::next`]. The run is
/// queued as one `SubArrive` before anything else is pushed, so its
/// members would have held consecutive sequence numbers at one time:
/// nothing could pop between them, and whatever their handlers push
/// pops after the whole run, as it would after the last member.
struct ArrivalRun {
    at: u64,
    machine: u32,
    head: u32,
    tail: u32,
}

/// Values addressed by a stable `u32` id; released ids are reused.
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab { items: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.items[id as usize] = item;
                id
            }
            None => {
                self.items.push(item);
                (self.items.len() - 1) as u32
            }
        }
    }

    /// Marks `id` reusable; its value stays readable until reused.
    fn release(&mut self, id: u32) {
        self.free.push(id);
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, id: u32) -> &T {
        &self.items[id as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, id: u32) -> &mut T {
        &mut self.items[id as usize]
    }
}

/// A multi-core FIFO server. The shares it has in service are not
/// stored here: they are exactly its pending `SubDone` events of the
/// current epoch, which [`FaultRun::lose_work`] reads from the queue.
struct Machine {
    cores: usize,
    busy: usize,
    up: bool,
    /// Incremented on every crash; `SubDone` events from before the
    /// crash carry the old epoch and are discarded.
    epoch: u32,
    /// Queued share ids.
    fifo: VecDeque<u32>,
}

struct ActiveQuery {
    trace_idx: u32,
    client: u32,
    /// Effective coordinator (the trace's, or its mirror when the
    /// trace's was dead at issue time).
    coordinator: u32,
    round: usize,
    pending: u32,
    round_has_remote: bool,
    failed: bool,
    start_ns: u64,
}

impl ClusterSim {
    /// Runs the discrete-event simulation under a fault plan, without
    /// migration charges and untraced.
    ///
    /// Fails as [`ClusterSim::run_elastic_traced`] does.
    pub fn run_faulted(
        &self,
        cfg: &FaultSimConfig,
        plan: &FaultPlan,
        mirrors: &MirrorDirectory,
    ) -> Result<FaultSimReport, SimError> {
        self.run_elastic_traced(cfg, plan, mirrors, &ElasticPlan::default(), &mut NullSink)
    }

    /// Runs the discrete-event simulation under a fault plan with the
    /// plan's membership events charged to the cost model and trace
    /// events recorded into `sink` (DESIGN.md §9). `elastic` carries
    /// the migration records each membership event moves (computed by
    /// the caller from the partitioning with
    /// `sgp_partition::plan_rebalance`; the default moves nothing), and
    /// `cfg.degraded` turns those records into a recovery window during
    /// which admission control may shed load (DESIGN.md §11).
    ///
    /// Stamps are simulated nanoseconds from the event clock, so the
    /// trace is a pure function of the traces, config and plan. Query
    /// lifecycle spans (`db.query`) are emitted at completion time as
    /// adjacent enter/exit pairs — concurrent queries overlap in sim
    /// time, and deferring emission keeps the event stream well-nested
    /// for [`sgp_trace::CollectingSink::check_nesting`].
    ///
    /// Fails with a typed [`SimError`] when the cluster is empty, the
    /// plan or the mirror directory does not match the cluster, the
    /// plan fails validation or leaves zero live machines from t = 0,
    /// the configuration offers no load or there are no traces to
    /// replay, or the retry policy allows no attempt.
    pub fn run_elastic_traced<S: TraceSink>(
        &self,
        cfg: &FaultSimConfig,
        plan: &FaultPlan,
        mirrors: &MirrorDirectory,
        elastic: &ElasticPlan,
        sink: &mut S,
    ) -> Result<FaultSimReport, SimError> {
        if self.machines == 0 {
            return Err(SimError::NoMachines);
        }
        if plan.machines != self.machines {
            return Err(SimError::ClusterMismatch { plan: plan.machines, cluster: self.machines });
        }
        plan.validate()?;
        if plan.all_machines_dead_from_start() {
            return Err(SimError::NoLiveMachines);
        }
        if mirrors.machines() != self.machines {
            return Err(SimError::MirrorMismatch {
                mirrors: mirrors.machines(),
                cluster: self.machines,
            });
        }
        if cfg.base.clients_per_machine == 0
            || cfg.base.queries_per_client == 0
            || self.traces.is_empty()
        {
            return Err(SimError::NoLoad);
        }
        if cfg.retry.max_attempts == 0 {
            return Err(SimError::NoAttempts);
        }
        Ok(FaultRun::new(self, cfg, plan, mirrors, elastic, sink).execute().report())
    }
}

/// One in-progress run of the event loop; groups the DES state so event
/// handlers are methods instead of functions with a dozen arguments.
pub(crate) struct FaultRun<'a, S: TraceSink> {
    sim: &'a ClusterSim,
    sink: &'a mut S,
    cfg: &'a SimConfig,
    retry: &'a RetryPolicy,
    plan: &'a FaultPlan,
    mirrors: &'a MirrorDirectory,
    degraded: DegradedConfig,
    elastic: &'a ElasticPlan,
    machines: Vec<Machine>,
    events: EventQueue<Event>,
    active: Slab<ActiveQuery>,
    /// Every share sent and not yet resolved by its `SubDone` or its
    /// final `SubFail`.
    shares: Slab<Share>,
    next_binding: usize,
    issued: usize,
    completed: usize,
    total_queries: usize,
    warmup: usize,
    warmup_end_ns: u64,
    last_completion_ns: u64,
    latencies_ns: Vec<u64>,
    /// Reads routed to each machine over the whole run, retries
    /// included ([`FaultSimReport::reads_per_machine`]).
    routed_reads: Vec<u64>,
    /// Counted (post-warm-up) successful completions per trace, from
    /// which [`SimReport::reads_per_machine`] follows.
    counted_per_trace: Vec<u64>,
    ok: usize,
    failed: usize,
    retries: u64,
    dropped: u64,
    failovers: u64,
    /// Monotonic cross-machine send counter keying drop draws.
    msg_counter: u64,
    /// Monotonic counter keying failover draws.
    draw_counter: u64,
    /// Simulated instant until which the cluster is in degraded mode
    /// (migration traffic in flight); admission control only sheds
    /// before this instant.
    degraded_until: u64,
    /// Shares fast-rejected by admission control.
    shed: u64,
    /// Migration records shipped over all membership events so far.
    data_moved: u64,
    /// Longest disruption-to-restored interval observed (the report's
    /// RTO), in simulated nanoseconds.
    rto_ns: u64,
}

impl<'a, S: TraceSink> FaultRun<'a, S> {
    pub(crate) fn new(
        sim: &'a ClusterSim,
        cfg: &'a FaultSimConfig,
        plan: &'a FaultPlan,
        mirrors: &'a MirrorDirectory,
        elastic: &'a ElasticPlan,
        sink: &'a mut S,
    ) -> Self {
        let k = sim.machines;
        let clients = cfg.base.clients_per_machine * k;
        let total_queries = clients * cfg.base.queries_per_client;
        #[expect(
            clippy::float_arithmetic,
            clippy::cast_precision_loss,
            reason = "warmup cutoff is a one-time fraction of the query count, rounded before the event loop starts"
        )]
        let warmup = (total_queries as f64 * cfg.base.warmup_fraction) as usize;
        let machines = (0..k)
            .map(|_| Machine {
                cores: cfg.base.cores_per_machine,
                busy: 0,
                up: true,
                epoch: 0,
                fifo: VecDeque::new(),
            })
            .collect();
        FaultRun {
            sim,
            sink,
            cfg: &cfg.base,
            retry: &cfg.retry,
            plan,
            mirrors,
            degraded: cfg.degraded,
            elastic,
            machines,
            events: EventQueue::new(),
            active: Slab::new(),
            shares: Slab::new(),
            next_binding: 0,
            issued: 0,
            completed: 0,
            total_queries,
            warmup,
            warmup_end_ns: 0,
            last_completion_ns: 0,
            latencies_ns: Vec::with_capacity(total_queries),
            routed_reads: vec![0; k],
            counted_per_trace: vec![0; sim.traces.len()],
            ok: 0,
            failed: 0,
            retries: 0,
            dropped: 0,
            failovers: 0,
            msg_counter: 0,
            draw_counter: 0,
            degraded_until: 0,
            shed: 0,
            data_moved: 0,
            rto_ns: 0,
        }
    }

    /// Runs the event loop to the last completion; the finished run
    /// renders either report.
    pub(crate) fn execute(mut self) -> Self {
        // Schedule the plan's crash/recovery events first so a crash at
        // t = 0 lands before any client issue at t = 0. Straggler
        // windows need no events: the slowdown factor is queried at
        // every service start.
        let plan = self.plan;
        for (i, e) in plan.events.iter().enumerate() {
            match *e {
                FaultEvent::Crash { machine, at_ns, recovery_ns } => {
                    self.events.push(at_ns, Event::Crash { machine });
                    if let Some(d) = recovery_ns {
                        self.events.push(at_ns.saturating_add(d), Event::Recover { machine });
                    }
                }
                FaultEvent::Membership { machine, at_ns, kind, rejoin_ns } => {
                    let takes_effect = match kind {
                        MembershipKind::ScaleOut => {
                            // The joiner is outside the cluster until
                            // its membership event fires.
                            self.machines[machine as usize].up = false;
                            at_ns
                        }
                        MembershipKind::ScaleIn => at_ns,
                        MembershipKind::CrashRejoin => {
                            self.events.push(at_ns, Event::Crash { machine });
                            at_ns.saturating_add(rejoin_ns.unwrap_or(1))
                        }
                    };
                    self.events.push(takes_effect, Event::Membership { event: i as u32 });
                }
                FaultEvent::Straggler { .. } => {}
            }
        }
        // Stagger client starts over one overhead period to avoid a
        // thundering herd at t=0.
        let clients = self.cfg.clients_per_machine * self.sim.machines;
        for c in 0..clients as u32 {
            let jitter = (c as u64 * 1_000) % (self.cfg.request_overhead_ns as u64 + 1);
            self.events.push(jitter, Event::Issue { client: c });
        }
        let run_span = self.sink.guard_span(keys::DB_RUN, 0, 0);
        while let Some((now, ev)) = self.events.pop() {
            match ev {
                Event::Issue { client } => self.on_issue(client, now),
                Event::SubArrive { share, machine } => self.on_arrival_run(share, machine, now),
                Event::SubDone { share, machine, epoch } => {
                    self.on_sub_done(share, machine, epoch, now);
                }
                Event::SubFail { share } => self.on_sub_fail(share, now),
                Event::Crash { machine } => {
                    self.sink.counter_add(keys::DB_CRASHES, machine as u64, 1);
                    self.lose_work(machine, now);
                }
                Event::Recover { machine } => {
                    self.machines[machine as usize].up = true;
                    self.sink.counter_add(keys::DB_RECOVERIES, machine as u64, 1);
                }
                Event::Membership { event } => self.on_membership(event as usize, now),
            }
            if self.completed >= self.total_queries {
                break;
            }
        }
        if self.sink.enabled() {
            for (m, &r) in self.routed_reads.iter().enumerate() {
                self.sink.counter_add(keys::DB_READS, m as u64, r);
            }
        }
        run_span.exit(&mut self.sink, self.last_completion_ns);
        self
    }

    /// Routes a share aimed at `target`: the target itself when up,
    /// else a live mirror when the seeded coverage draw finds one, else
    /// the (dead) target — the send will time out and ride the retry
    /// loop until recovery or exhaustion.
    fn route(&mut self, target: u32) -> (u32, bool) {
        if self.machines[target as usize].up {
            return (target, false);
        }
        self.draw_counter += 1;
        if self.plan.unit_draw(self.draw_counter) < self.mirrors.coverage(target) {
            let machines = &self.machines;
            if let Some(peer) = self.mirrors.failover_target(target, |m| machines[m as usize].up) {
                return (peer, true);
            }
        }
        (target, false)
    }

    /// Routes share `id`, sent at time `t`, and counts the send: the
    /// machine and instant it arrives at, or the instant the coordinator
    /// declares its dropped message lost. Exactly one `SubDone` or
    /// `SubFail` eventually resolves every send.
    fn launch(&mut self, id: u32, t: u64) -> Launch {
        let Share { query, origin, reads, .. } = self.shares[id];
        let (routed, failed_over) = self.route(origin);
        if failed_over {
            self.failovers += 1;
            self.sink.counter_add(keys::DB_FAILOVERS, origin as u64, 1);
        }
        self.routed_reads[routed as usize] += reads as u64;
        let q = &mut self.active[query];
        let remote = routed != q.coordinator;
        q.round_has_remote |= remote;
        if !remote {
            return Launch::Arrive { at: t, machine: routed };
        }
        self.msg_counter += 1;
        if self.plan.drop_message(self.msg_counter) {
            self.dropped += 1;
            self.sink.counter_add(keys::DB_DROPPED_MESSAGES, routed as u64, 1);
            return Launch::Fail { at: t + self.retry.timeout_ns };
        }
        Launch::Arrive { at: t + self.cfg.half_rtt_ns as u64, machine: routed }
    }

    /// Sends share `id` at time `t`: appends it to `run` when it arrives
    /// where and when the run does, else queues `run` and starts a new
    /// one with it (or, when its message is dropped, pushes its
    /// `SubFail`). The caller queues the last run with
    /// [`FaultRun::queue_run`] before pushing anything else.
    fn send_share(&mut self, id: u32, t: u64, run: &mut Option<ArrivalRun>) {
        match self.launch(id, t) {
            Launch::Arrive { at, machine } => {
                self.shares[id].next = NO_SHARE;
                if let Some(r) = run.as_mut().filter(|r| r.at == at && r.machine == machine) {
                    self.shares[r.tail].next = id;
                    r.tail = id;
                } else {
                    let started = ArrivalRun { at, machine, head: id, tail: id };
                    self.queue_run(run.replace(started));
                }
            }
            Launch::Fail { at } => {
                self.queue_run(run.take());
                self.events.push(at, Event::SubFail { share: id });
            }
        }
    }

    /// Pushes the one `SubArrive` of `run`, if there is one.
    fn queue_run(&mut self, run: Option<ArrivalRun>) {
        if let Some(ArrivalRun { at, machine, head, .. }) = run {
            self.events.push(at, Event::SubArrive { share: head, machine });
        }
    }

    fn on_issue(&mut self, client: u32, now: u64) {
        if self.issued >= self.total_queries {
            return;
        }
        self.issued += 1;
        let trace_idx = (self.next_binding % self.sim.traces.len()) as u32;
        self.next_binding += 1;
        let home = self.sim.traces[trace_idx as usize].coordinator;
        let (coordinator, failed_over) = self.route(home);
        let slot = self.active.insert(ActiveQuery {
            trace_idx,
            client,
            coordinator,
            round: 0,
            pending: 0,
            round_has_remote: false,
            failed: false,
            start_ns: now,
        });
        if !self.machines[coordinator as usize].up {
            // The query's start vertex lives on a dead machine with no
            // usable mirror: the client times out and moves on.
            self.complete(slot, now + self.retry.timeout_ns, false);
            return;
        }
        if failed_over {
            self.failovers += 1;
            self.sink.counter_add(keys::DB_FAILOVERS, home as u64, 1);
        }
        self.dispatch_round(slot, now);
        // A query with no rounds at all (or only all-zero ones)
        // completes instantly.
        if self.active[slot].pending == 0 {
            self.complete(slot, now, true);
        }
    }

    /// The run headed by `head` arrives at `machine`: each member is
    /// handled in send order, exactly as its own `SubArrive` would be.
    fn on_arrival_run(&mut self, head: u32, machine: u32, now: u64) {
        let mut id = head;
        while id != NO_SHARE {
            let next = self.shares[id].next;
            self.on_sub_arrive(id, machine, now);
            id = next;
        }
    }

    fn on_sub_arrive(&mut self, id: u32, machine: u32, now: u64) {
        let m = &mut self.machines[machine as usize];
        if !m.up {
            // Arrived at a corpse; the coordinator notices by timeout.
            self.events.push(now + self.retry.timeout_ns, Event::SubFail { share: id });
            return;
        }
        if m.busy < m.cores {
            m.busy += 1;
            self.start_service(id, machine, now);
            return;
        }
        // Admission control: while migration traffic is in flight, a
        // machine whose queue is already past the shed threshold
        // fast-rejects the share instead of queueing it — the
        // coordinator retries with backoff and may fail over.
        if self.degraded.shed_queue_depth > 0
            && now < self.degraded_until
            && m.fifo.len() >= self.degraded.shed_queue_depth
        {
            self.shed += 1;
            self.sink.counter_add(keys::DB_SHED_QUERIES, machine as u64, 1);
            self.events.push(now, Event::SubFail { share: id });
            return;
        }
        m.fifo.push_back(id);
        if self.sink.enabled() {
            let depth = m.fifo.len() as u64;
            self.sink.counter_add(keys::DB_QUEUE_ENQUEUED, machine as u64, 1);
            self.sink.histogram_record(keys::DB_QUEUE_DEPTH, machine as u64, depth);
        }
    }

    /// Puts share `id` on a core of `machine` (already counted busy).
    fn start_service(&mut self, id: u32, machine: u32, now: u64) {
        let slow = self.plan.slowdown(machine, now);
        #[expect(
            clippy::float_arithmetic,
            clippy::cast_precision_loss,
            reason = "the one float->integral boundary applying the slowdown factor"
        )]
        let effective = (self.shares[id].service_ns as f64 * slow) as u64;
        let epoch = self.machines[machine as usize].epoch;
        self.events.push(now + effective, Event::SubDone { share: id, machine, epoch });
    }

    fn on_sub_done(&mut self, id: u32, machine: u32, epoch: u32, now: u64) {
        let m = &mut self.machines[machine as usize];
        if m.epoch != epoch {
            // Completion from before a crash: that work is lost and
            // its failure already scheduled; ignore.
            return;
        }
        // Free the core, or hand it to the next queued share.
        match m.fifo.pop_front() {
            Some(next) => self.start_service(next, machine, now),
            None => m.busy -= 1,
        }
        let query = self.shares[id].query;
        self.shares.release(id);
        let q = &mut self.active[query];
        q.pending -= 1;
        if q.pending > 0 {
            return;
        }
        if q.failed {
            self.complete(query, now, false);
            return;
        }
        let reply_delay = if q.round_has_remote { self.cfg.half_rtt_ns as u64 } else { 0 };
        let round_end = now + reply_delay;
        q.round += 1;
        self.dispatch_round(query, round_end);
        // No share sent: the trace is exhausted (or only all-zero
        // rounds were left).
        if self.active[query].pending == 0 {
            self.complete(query, round_end, true);
        }
    }

    fn on_sub_fail(&mut self, id: u32, now: u64) {
        let Share { query, origin, attempt, .. } = self.shares[id];
        let q = &mut self.active[query];
        if q.failed || attempt >= self.retry.max_attempts {
            q.failed = true;
            q.pending -= 1;
            self.shares.release(id);
            if q.pending == 0 {
                self.complete(query, now, false);
            }
            return;
        }
        self.retries += 1;
        self.sink.counter_add(keys::DB_RETRIES, origin as u64, 1);
        self.shares[id].attempt = attempt + 1;
        let mut run = None;
        self.send_share(id, now + self.retry.backoff_ns(attempt), &mut run);
        self.queue_run(run);
    }

    /// The membership change `plan.events[event]` takes effect; its
    /// migration records are charged from `now`.
    fn on_membership(&mut self, event: usize, now: u64) {
        let plan = self.plan;
        let FaultEvent::Membership { machine, at_ns, kind, .. } = plan.events[event] else {
            return;
        };
        // `elastic` is aligned with the plan's membership events only.
        let ordinal = plan.events[..event]
            .iter()
            .filter(|e| matches!(e, FaultEvent::Membership { .. }))
            .count();
        let records = self.elastic.records_per_event.get(ordinal).copied().unwrap_or(0);
        self.sink.counter_add(keys::DB_MEMBERSHIP_EVENTS, machine as u64, 1);
        // The recovery interval runs from the crash instant for a
        // rejoin, from the event itself otherwise.
        let since = match kind {
            MembershipKind::ScaleOut => {
                self.machines[machine as usize].up = true;
                now
            }
            MembershipKind::ScaleIn => {
                self.lose_work(machine, now);
                now
            }
            MembershipKind::CrashRejoin => {
                self.machines[machine as usize].up = true;
                at_ns
            }
        };
        self.begin_migration(machine, records, now, since);
    }

    /// Charges `records` of migration for the membership change at
    /// `machine` to the cost model: the cluster runs degraded until the
    /// transfer drains, and the recovery interval — measured from
    /// `since` — feeds the report's RTO.
    fn begin_migration(&mut self, machine: u32, records: u64, now: u64, since: u64) {
        self.data_moved += records;
        if records > 0 {
            self.sink.counter_add(keys::DB_DATA_MOVED, machine as u64, records);
        }
        let window = records.saturating_mul(self.degraded.migration_ns_per_record);
        let restored = now.saturating_add(window);
        self.degraded_until = self.degraded_until.max(restored);
        let rto = restored.saturating_sub(since);
        self.sink.histogram_record(keys::DB_RECOVERY_NS, machine as u64, rto);
        self.rto_ns = self.rto_ns.max(rto);
    }

    /// Takes `machine` out of service: bumps its epoch so stale
    /// completions are discarded and fails all in-service and queued
    /// work after the coordinator's timeout. The in-service shares are
    /// the machine's pending `SubDone` events of the epoch that ends
    /// here; scanning the whole queue for them on this rare event is
    /// what spares every completion a per-machine in-service list.
    fn lose_work(&mut self, machine: u32, now: u64) {
        let m = &mut self.machines[machine as usize];
        let mut in_service: Vec<(u64, u32)> = self
            .events
            .pending()
            .filter_map(|(seq, e)| match *e {
                Event::SubDone { share, machine: at, epoch }
                    if at == machine && epoch == m.epoch =>
                {
                    Some((seq, share))
                }
                _ => None,
            })
            .collect();
        // Sequence order is service-start order.
        in_service.sort_unstable();
        m.up = false;
        m.epoch += 1;
        m.busy = 0;
        let fail_at = now + self.retry.timeout_ns;
        for share in in_service.into_iter().map(|(_, share)| share).chain(m.fifo.drain(..)) {
            self.events.push(fail_at, Event::SubFail { share });
        }
    }

    /// Sends the shares of query `slot`'s first non-empty round from
    /// its current one on, at time `t`, as arrival runs; leaves
    /// `pending == 0` when no such round is left.
    fn dispatch_round(&mut self, slot: u32, t: u64) {
        let sim = self.sim;
        let cfg = self.cfg;
        let mut run = None;
        let (trace_idx, mut round, coordinator) = {
            let q = &mut self.active[slot];
            q.round_has_remote = false;
            (q.trace_idx as usize, q.round, q.coordinator)
        };
        let trace = &sim.traces[trace_idx];
        let mut pending = 0u32;
        // Skip over all-empty rounds.
        while round < trace.rounds.len() {
            let r = &trace.rounds[round];
            let mut remote_fanout = 0u32;
            for (m, &reads) in r.reads.iter().enumerate() {
                if reads == 0 {
                    continue;
                }
                let remote = m as u32 != coordinator;
                if remote {
                    remote_fanout += 1;
                }
                let extra_ns = if remote { cfg.remote_read_extra_ns } else { 0.0 };
                #[expect(
                    clippy::float_arithmetic,
                    reason = "evaluating the float service-time model; the result is cast to integral ns below"
                )]
                let per_read = cfg.read_service_ns + extra_ns;
                // A batch read parallelizes over up to
                // `intra_request_parallelism` cores of the target
                // machine; the RPC overhead is paid once, on the first
                // share.
                let shares = (reads as usize).min(cfg.intra_request_parallelism.max(1)) as u32;
                let per_share = reads / shares;
                let remainder = reads % shares;
                for share in 0..shares {
                    let share_reads = per_share + u32::from(share < remainder);
                    #[expect(
                        clippy::float_arithmetic,
                        reason = "the one float->integral boundary for per-share service time"
                    )]
                    let mut service_ns = (share_reads as f64 * per_read) as u64;
                    if share == 0 {
                        service_ns += cfg.request_overhead_ns as u64;
                    }
                    pending += 1;
                    let id = self.shares.insert(Share {
                        query: slot,
                        origin: m as u32,
                        reads: share_reads,
                        attempt: 1,
                        next: NO_SHARE,
                        service_ns,
                    });
                    self.send_share(id, t, &mut run);
                }
            }
            // Scatter-gather fan-out: the coordinator serializes every
            // remote request and merges every remote response.
            if remote_fanout > 0 {
                pending += 1;
                #[expect(
                    clippy::float_arithmetic,
                    reason = "the one float->integral boundary for coordinator fan-out time"
                )]
                let service_ns = (cfg.fanout_ns * remote_fanout as f64) as u64;
                let id = self.shares.insert(Share {
                    query: slot,
                    origin: coordinator,
                    reads: 0,
                    attempt: 1,
                    next: NO_SHARE,
                    service_ns,
                });
                self.send_share(id, t, &mut run);
            }
            if pending > 0 {
                break;
            }
            round += 1;
        }
        self.queue_run(run);
        let q = &mut self.active[slot];
        q.round = round;
        q.pending = pending;
    }

    /// Completion bookkeeping shared by successful and failed queries:
    /// failed queries count toward totals and warm-up but contribute no
    /// latency sample.
    fn complete(&mut self, slot: u32, now: u64, success: bool) {
        let ActiveQuery { client, start_ns, trace_idx, .. } = self.active[slot];
        self.completed += 1;
        self.last_completion_ns = now;
        if self.completed == self.warmup {
            self.warmup_end_ns = now;
        }
        if self.completed > self.warmup {
            if success {
                self.ok += 1;
                self.latencies_ns.push(now - start_ns);
                self.counted_per_trace[trace_idx as usize] += 1;
                if self.sink.enabled() {
                    self.sink
                        .guard_span(keys::DB_QUERY, trace_idx as u64, start_ns)
                        .exit(&mut self.sink, now);
                    self.sink.counter_add(keys::DB_QUERIES_OK, 0, 1);
                    self.sink.histogram_record(keys::DB_QUERY_LATENCY_NS, 0, now - start_ns);
                }
            } else {
                self.failed += 1;
                self.sink.counter_add(keys::DB_QUERIES_FAILED, 0, 1);
            }
        }
        self.active.release(slot);
        self.events.push(now, Event::Issue { client });
    }

    #[expect(
        clippy::float_arithmetic,
        clippy::cast_precision_loss,
        reason = "report rendering — availability, qps and seconds are derived from integral counters after the clock stops"
    )]
    pub(crate) fn report(mut self) -> FaultSimReport {
        let lat = latency_summary_ms(&mut self.latencies_ns);
        let window_ns = self.last_completion_ns.saturating_sub(self.warmup_end_ns).max(1);
        let window_s = window_ns as f64 / 1e9;
        let denom = (self.ok + self.failed).max(1) as f64;
        FaultSimReport {
            availability: self.ok as f64 / denom,
            goodput_qps: self.ok as f64 / window_s,
            offered_qps: (self.ok + self.failed) as f64 / window_s,
            completed_ok: self.ok,
            failed: self.failed,
            retries: self.retries,
            dropped_messages: self.dropped,
            failovers: self.failovers,
            mean_latency_ms: lat.mean_ms,
            p50_latency_ms: lat.p50_ms,
            p99_latency_ms: lat.p99_ms,
            max_latency_ms: lat.max_ms,
            load_rsd: rsd(&self.routed_reads),
            reads_per_machine: self.routed_reads,
            sim_seconds: self.last_completion_ns as f64 / 1e9,
            rto_ms: self.rto_ns as f64 / 1e6,
            data_moved: self.data_moved,
            shed_queries: self.shed,
        }
    }

    /// The report of a run in which nothing failed: goodput is the
    /// throughput, and `reads_per_machine` is the trace reads of the
    /// counted completions rather than the reads routed over the whole
    /// run.
    pub(crate) fn healthy_report(self) -> SimReport {
        let mut reads_per_machine = vec![0u64; self.sim.machines];
        for (trace, &counted) in self.sim.traces.iter().zip(&self.counted_per_trace) {
            for round in &trace.rounds {
                for (total, &reads) in reads_per_machine.iter_mut().zip(&round.reads) {
                    *total += counted * reads as u64;
                }
            }
        }
        let r = self.report();
        SimReport {
            throughput_qps: r.goodput_qps,
            mean_latency_ms: r.mean_latency_ms,
            p50_latency_ms: r.p50_latency_ms,
            p99_latency_ms: r.p99_latency_ms,
            max_latency_ms: r.max_latency_ms,
            completed: r.completed_ok,
            load_rsd: rsd(&reads_per_machine),
            reads_per_machine,
            sim_seconds: r.sim_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryTrace, RoundTrace};
    use crate::store::PartitionedStore;
    use crate::workload::{Skew, Workload, WorkloadKind};
    use sgp_graph::generators::{snb_social, SnbConfig};
    use sgp_graph::StreamOrder;
    use sgp_partition::{partition, Algorithm, PartitionerConfig};
    use sgp_trace::CollectingSink;

    fn two_machine_sim() -> ClusterSim {
        // One query class: coordinator 0 reads 2 local + 2 remote.
        let trace = QueryTrace { coordinator: 0, rounds: vec![RoundTrace { reads: vec![2, 2] }] };
        ClusterSim::from_traces(2, vec![trace])
    }

    fn quick_cfg() -> FaultSimConfig {
        FaultSimConfig {
            base: SimConfig {
                clients_per_machine: 4,
                queries_per_client: 25,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn full_coverage(machines: usize) -> MirrorDirectory {
        MirrorDirectory {
            coverage: vec![1.0; machines],
            peers: (0..machines)
                .map(|m| (0..machines as u32).filter(|&p| p as usize != m).collect())
                .collect(),
        }
    }

    fn small_snb() -> Graph {
        snb_social(SnbConfig {
            persons: 600,
            communities: 12,
            avg_friends: 10.0,
            ..SnbConfig::default()
        })
    }

    fn snb_sim(k: usize) -> ClusterSim {
        let g = small_snb();
        let p = partition(
            &g,
            Algorithm::Ldg,
            &PartitionerConfig::new(k),
            StreamOrder::Random { seed: 4 },
        );
        let w = Workload::generate(&g, WorkloadKind::TwoHop, 120, Skew::Zipf { theta: 0.8 }, 11);
        ClusterSim::prepare(&PartitionedStore::new(g, &p), &w)
    }

    #[test]
    fn healthy_run_is_the_loop_under_an_empty_plan() {
        // `run` is a projection of the general entry under a plan with
        // no faults: every shared field agrees by bits, nothing is
        // retried, dropped or failed over, and the routed reads are the
        // counted reads plus those of the warm-up completions.
        for sim in [two_machine_sim(), snb_sim(4)] {
            for warmup_fraction in [0.0, 0.2] {
                let cfg = FaultSimConfig {
                    base: SimConfig { warmup_fraction, ..quick_cfg().base },
                    ..quick_cfg()
                };
                let k = sim.machines;
                let healthy = sim.run(&cfg.base);
                let r = sim
                    .run_elastic_traced(
                        &cfg,
                        &FaultPlan::healthy(k, 9),
                        &MirrorDirectory::edge_cut(k),
                        &ElasticPlan::default(),
                        &mut NullSink,
                    )
                    .unwrap();
                assert_eq!(r.completed_ok, healthy.completed);
                assert_eq!((r.failed, r.retries, r.dropped_messages, r.failovers), (0, 0, 0, 0));
                assert_eq!(r.availability, 1.0);
                for (general, projected) in [
                    (r.goodput_qps, healthy.throughput_qps),
                    (r.offered_qps, healthy.throughput_qps),
                    (r.mean_latency_ms, healthy.mean_latency_ms),
                    (r.p50_latency_ms, healthy.p50_latency_ms),
                    (r.p99_latency_ms, healthy.p99_latency_ms),
                    (r.max_latency_ms, healthy.max_latency_ms),
                    (r.sim_seconds, healthy.sim_seconds),
                ] {
                    assert_eq!(general.to_bits(), projected.to_bits());
                }
                let routed: u64 = r.reads_per_machine.iter().sum();
                let counted: u64 = healthy.reads_per_machine.iter().sum();
                if warmup_fraction == 0.0 {
                    assert_eq!(r.reads_per_machine, healthy.reads_per_machine);
                } else {
                    assert!(routed > counted, "warm-up reads are routed but not counted");
                }
            }
        }
    }

    /// The crash scenario of the share-identity regression tests: one
    /// query class reading 3 vertices on machine 1 from coordinator 0,
    /// two clients (issuing at 0 and 1 us), one query each, machine 1
    /// down from 500 us to 700 us. With parallelism 2 each query sends
    /// a 2-read share (420 us of service) and a 1-read share (180 us),
    /// all four arriving at 250/251 us.
    fn crash_mid_round(
        cores_per_machine: usize,
        intra_request_parallelism: usize,
    ) -> FaultSimReport {
        let trace = QueryTrace { coordinator: 0, rounds: vec![RoundTrace { reads: vec![0, 3] }] };
        let cfg = FaultSimConfig {
            base: SimConfig {
                clients_per_machine: 1,
                cores_per_machine,
                intra_request_parallelism,
                queries_per_client: 1,
                warmup_fraction: 0.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = FaultPlan::healthy(2, 1).with_recovering_crash(1, 500_000, 200_000);
        ClusterSim::from_traces(2, vec![trace])
            .run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(2))
            .unwrap()
    }

    #[test]
    fn crash_resends_the_shares_that_were_in_service() {
        // Four cores: every share is in service on arrival. The 1-read
        // shares finish at 430/431 us; the crash loses the two 2-read
        // shares, which fail at 2.5 ms, are re-sent at 3 ms, served
        // 3.25–3.67 ms and answered at 3.92 ms. Telling shares of one
        // query apart only by (query, attempt) re-sent the finished
        // 1-read shares instead: 8 routed reads and 3.68 ms.
        let r = crash_mid_round(4, 2);
        assert_eq!(r.retries, 2);
        assert_eq!(r.reads_per_machine, vec![0, 3 + 3 + 2 + 2]);
        assert_eq!((r.completed_ok, r.failed), (2, 0));
        assert_eq!(r.max_latency_ms, 3.92);
        assert_eq!(r.mean_latency_ms, (3.92 + 3.919) / 2.0);
    }

    #[test]
    fn crash_resends_in_service_and_queued_shares_once_each() {
        // One core: at the crash the first query's 2-read share is in
        // service and the other three shares are queued behind it. All
        // four are lost, re-sent once and served back to back from
        // 3.25 ms (420 + 180 + 420 + 180 us), so the queries are
        // answered at 4.1 ms and 4.7 ms.
        let r = crash_mid_round(1, 2);
        assert_eq!(r.retries, 4);
        assert_eq!(r.reads_per_machine, vec![0, 2 * (3 + 3)]);
        assert_eq!((r.completed_ok, r.failed), (2, 0));
        assert_eq!(r.max_latency_ms, 4.699);
        assert_eq!(r.mean_latency_ms, (4.1 + 4.699) / 2.0);
    }

    #[test]
    fn empty_and_padded_traces_complete() {
        // A trace without rounds completes the instant it is issued; a
        // trace padded with all-zero rounds behaves as its one real
        // round — healthy and across a crash of the machine it reads.
        let trace = |rounds: &[[u32; 2]]| QueryTrace {
            coordinator: 0,
            rounds: rounds.iter().map(|r| RoundTrace { reads: r.to_vec() }).collect(),
        };
        let cfg = quick_cfg();
        let total = 2 * cfg.base.clients_per_machine * cfg.base.queries_per_client;
        #[expect(
            clippy::cast_precision_loss,
            reason = "the test oracle recomputes the simulator's float expression"
        )]
        let counted = total - (total as f64 * cfg.base.warmup_fraction) as usize;
        let crash = FaultPlan::healthy(2, 3).with_recovering_crash(1, 1_000_000, 4_000_000);
        let run = |rounds: &[[u32; 2]], plan: &FaultPlan| {
            ClusterSim::from_traces(2, vec![trace(rounds)])
                .run_faulted(&cfg, plan, &MirrorDirectory::edge_cut(2))
                .unwrap()
        };

        let empty = ClusterSim::from_traces(2, vec![trace(&[])]);
        let healthy = empty.run(&cfg.base);
        assert_eq!((healthy.completed, healthy.max_latency_ms), (counted, 0.0));
        assert_eq!(healthy.reads_per_machine, vec![0, 0]);
        let crashed = run(&[], &crash);
        assert_eq!((crashed.completed_ok, crashed.failed, crashed.retries), (counted, 0, 0));
        assert_eq!(run(&[[0, 0], [0, 0]], &crash).completed_ok, counted);

        let padded = [[0, 0], [1, 2], [0, 0], [0, 0]];
        let bare = [[1, 2]];
        let sim = |rounds| ClusterSim::from_traces(2, vec![trace(rounds)]);
        assert_eq!(
            format!("{:?}", sim(&padded).run(&cfg.base)),
            format!("{:?}", sim(&bare).run(&cfg.base))
        );
        let crashed = run(&padded, &crash);
        assert!(crashed.retries > 0, "the outage must be visible");
        assert_eq!(crashed.completed_ok + crashed.failed, counted);
        assert_eq!(format!("{crashed:?}"), format!("{:?}", run(&bare, &crash)));
    }

    #[test]
    fn fixed_seed_run_is_bit_for_bit_reproducible() {
        let sim = two_machine_sim();
        let cfg = quick_cfg();
        let plan = FaultPlan::healthy(2, 42)
            .with_recovering_crash(1, 2_000_000, 30_000_000)
            .with_straggler(0, 0, 50_000_000, 2.0)
            .with_message_loss(0.02);
        let mirrors = full_coverage(2);
        let a = sim.run_faulted(&cfg, &plan, &mirrors).unwrap();
        let b = sim.run_faulted(&cfg, &plan, &mirrors).unwrap();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same plan + seed must reproduce the report bit-for-bit"
        );
    }

    #[test]
    fn message_loss_triggers_retries_not_failures() {
        let sim = two_machine_sim();
        let cfg = quick_cfg();
        let plan = FaultPlan::healthy(2, 3).with_message_loss(0.05);
        let r = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(2)).unwrap();
        assert!(r.dropped_messages > 0, "5% loss over thousands of sends must drop some");
        assert!(r.retries >= r.dropped_messages, "every drop is retried");
        // 4 attempts at 5% loss: failure odds per share are ~6e-6.
        assert!(r.availability > 0.99, "retries should mask rare drops: {}", r.availability);
    }

    #[test]
    fn permanent_crash_without_mirrors_kills_availability() {
        let sim = two_machine_sim();
        let cfg = quick_cfg();
        let plan = FaultPlan::healthy(2, 5).with_crash(1, 0);
        let r = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(2)).unwrap();
        assert!(r.failed > 0, "remote reads on the dead machine must fail queries");
        assert!(r.availability < 1.0);
        assert_eq!(r.failovers, 0);
    }

    #[test]
    fn mirrors_restore_availability_after_crash() {
        let sim = two_machine_sim();
        let cfg = quick_cfg();
        let plan = FaultPlan::healthy(2, 5).with_crash(1, 0);
        let none = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(2)).unwrap();
        let full = sim.run_faulted(&cfg, &plan, &full_coverage(2)).unwrap();
        assert!(full.failovers > 0, "dead-machine reads must fail over");
        assert!(
            full.availability > none.availability,
            "mirrors must beat no mirrors: {} vs {}",
            full.availability,
            none.availability
        );
        assert!((full.availability - 1.0).abs() < 1e-12, "full coverage masks the crash");
    }

    #[test]
    fn recovering_crash_heals() {
        let sim = two_machine_sim();
        let cfg = quick_cfg();
        // Dead for 10 ms early in the run, then back.
        let plan = FaultPlan::healthy(2, 7).with_recovering_crash(1, 1_000_000, 10_000_000);
        let r = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(2)).unwrap();
        assert!(r.retries > 0, "the outage must trigger retries");
        assert!(r.availability > 0.5, "most of the run is healthy: {}", r.availability);
    }

    #[test]
    fn straggler_inflates_latency() {
        let sim = two_machine_sim();
        let cfg = quick_cfg();
        let healthy = sim
            .run_faulted(&cfg, &FaultPlan::healthy(2, 1), &MirrorDirectory::edge_cut(2))
            .unwrap();
        let slowed = sim
            .run_faulted(
                &cfg,
                &FaultPlan::healthy(2, 1).with_straggler(1, 0, u64::MAX, 4.0),
                &MirrorDirectory::edge_cut(2),
            )
            .unwrap();
        assert!(
            slowed.mean_latency_ms > 1.2 * healthy.mean_latency_ms,
            "a 4x straggler must inflate latency: {} vs {}",
            slowed.mean_latency_ms,
            healthy.mean_latency_ms
        );
        assert!(slowed.goodput_qps < healthy.goodput_qps);
    }

    #[test]
    fn all_dead_cluster_is_a_typed_error() {
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 1).with_crash(0, 0).with_crash(1, 0);
        let err = sim.run_faulted(&quick_cfg(), &plan, &MirrorDirectory::edge_cut(2)).unwrap_err();
        assert_eq!(err, SimError::NoLiveMachines);
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(3, 1);
        let err = sim.run_faulted(&quick_cfg(), &plan, &MirrorDirectory::edge_cut(2)).unwrap_err();
        assert_eq!(err, SimError::ClusterMismatch { plan: 3, cluster: 2 });
    }

    #[test]
    fn mismatched_mirror_directory_is_rejected() {
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 1);
        let err = sim.run_faulted(&quick_cfg(), &plan, &MirrorDirectory::edge_cut(3)).unwrap_err();
        assert_eq!(err, SimError::MirrorMismatch { mirrors: 3, cluster: 2 });
    }

    #[test]
    fn empty_load_is_a_typed_error() {
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 1);
        for base in [
            SimConfig { clients_per_machine: 0, ..Default::default() },
            SimConfig { queries_per_client: 0, ..Default::default() },
        ] {
            let cfg = FaultSimConfig { base, ..Default::default() };
            let err = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(2)).unwrap_err();
            assert_eq!(err, SimError::NoLoad);
        }
    }

    #[test]
    fn empty_trace_set_is_a_typed_error() {
        // A workload without queries prepares a simulation with no
        // traces; the loop would divide by the trace count.
        let g = small_snb();
        let p = partition(
            &g,
            Algorithm::Ldg,
            &PartitionerConfig::new(2),
            StreamOrder::Random { seed: 4 },
        );
        let w = Workload::generate(&g, WorkloadKind::TwoHop, 0, Skew::Uniform, 1);
        let sim = ClusterSim::prepare(&PartitionedStore::new(g, &p), &w);
        let plan = FaultPlan::healthy(2, 1);
        let err = sim.run_faulted(&quick_cfg(), &plan, &MirrorDirectory::edge_cut(2)).unwrap_err();
        assert_eq!(err, SimError::NoLoad);
    }

    #[test]
    fn zero_attempt_retry_policy_is_a_typed_error() {
        let sim = two_machine_sim();
        let cfg = FaultSimConfig {
            retry: RetryPolicy { max_attempts: 0, ..Default::default() },
            ..quick_cfg()
        };
        let plan = FaultPlan::healthy(2, 1);
        let err = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(2)).unwrap_err();
        assert_eq!(err, SimError::NoAttempts);
    }

    #[test]
    fn zero_machine_cluster_is_a_typed_error() {
        let sim = ClusterSim::from_traces(0, two_machine_sim().traces);
        let plan = FaultPlan::healthy(0, 1);
        let err = sim.run_faulted(&quick_cfg(), &plan, &MirrorDirectory::edge_cut(0)).unwrap_err();
        assert_eq!(err, SimError::NoMachines);
    }

    #[test]
    fn replicating_cuts_survive_crashes_edge_cut_does_not() {
        // The acceptance criterion: under the same crash plan, a
        // vertex-cut (and hybrid-cut) store fails over to mirrors while
        // the edge-cut store cannot.
        let g = small_snb();
        let k = 4;
        let pcfg = PartitionerConfig::new(k);
        let w = Workload::generate(&g, WorkloadKind::OneHop, 300, Skew::Uniform, 11);
        let plan = FaultPlan::healthy(k, 17).with_crash((k - 1) as u32, 0);
        let cfg = quick_cfg();
        let mut avail = Vec::new();
        for alg in [Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::HybridRandom] {
            let p = partition(&g, alg, &pcfg, StreamOrder::Random { seed: 4 });
            let store = PartitionedStore::from_owner(g.clone(), k, p.masters(&g));
            let sim = ClusterSim::prepare(&store, &w);
            let mirrors = MirrorDirectory::for_model(&g, &p);
            let r = sim.run_faulted(&cfg, &plan, &mirrors).unwrap();
            avail.push(r.availability);
        }
        let (ec, vc, hc) = (avail[0], avail[1], avail[2]);
        assert!(vc > ec, "vertex-cut availability must beat edge-cut: {vc} vs {ec}");
        assert!(hc > ec, "hybrid-cut availability must beat edge-cut: {hc} vs {ec}");
        assert!(ec < 1.0, "a quarter of the data is gone; edge-cut must lose queries");
    }

    #[test]
    fn mirror_directory_shapes() {
        let g = snb_social(SnbConfig { persons: 200, communities: 4, ..SnbConfig::default() });
        let p = partition(
            &g,
            Algorithm::VcrHash,
            &PartitionerConfig::new(3),
            StreamOrder::Random { seed: 1 },
        );
        let d = MirrorDirectory::from_partitioning(&g, &p);
        assert_eq!(d.machines(), 3);
        for m in 0..3u32 {
            assert!((0.0..=1.0).contains(&d.coverage(m)));
            assert!(d.failover_target(m, |_| true).is_none() || d.coverage(m) > 0.0);
        }
        let ec = MirrorDirectory::edge_cut(3);
        for m in 0..3u32 {
            assert_eq!(ec.coverage(m), 0.0);
            assert!(ec.failover_target(m, |_| true).is_none());
        }
    }

    #[test]
    fn plain_fault_run_reports_no_elastic_activity() {
        // Degraded mode off + no membership events: the elasticity
        // fields are inert zeros and the rest of the report matches a
        // pre-elasticity run.
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 7).with_recovering_crash(1, 1_000_000, 10_000_000);
        let r = sim.run_faulted(&quick_cfg(), &plan, &MirrorDirectory::edge_cut(2)).unwrap();
        assert_eq!(r.rto_ms, 0.0);
        assert_eq!(r.data_moved, 0);
        assert_eq!(r.shed_queries, 0);
    }

    /// An untraced elastic run of the two-machine cluster with every
    /// vertex mirrored.
    fn run_elastic(
        sim: &ClusterSim,
        cfg: &FaultSimConfig,
        plan: &FaultPlan,
        elastic: &ElasticPlan,
    ) -> FaultSimReport {
        sim.run_elastic_traced(cfg, plan, &full_coverage(2), elastic, &mut NullSink).unwrap()
    }

    fn elastic_cfg() -> FaultSimConfig {
        FaultSimConfig {
            degraded: DegradedConfig { shed_queue_depth: 1, migration_ns_per_record: 10_000 },
            ..quick_cfg()
        }
    }

    #[test]
    fn scale_in_charges_migration_and_reports_rto() {
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 7).with_scale_in(1, 2_000_000);
        let elastic = ElasticPlan { records_per_event: vec![500] };
        let r = run_elastic(&sim, &elastic_cfg(), &plan, &elastic);
        assert_eq!(r.data_moved, 500);
        // 500 records at 10 us each -> a 5 ms recovery window.
        assert!((r.rto_ms - 5.0).abs() < 1e-9, "rto_ms = {}", r.rto_ms);
        assert!(r.failovers > 0, "post-departure reads must fail over to mirrors");
    }

    #[test]
    fn scale_out_machine_is_down_until_it_joins() {
        // Machine 1 only joins the two-machine cluster at 5 ms; before
        // that its reads fail over (full mirrors) or ride retries.
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 7).with_scale_out(1, 5_000_000);
        let elastic = ElasticPlan { records_per_event: vec![200] };
        let r = run_elastic(&sim, &elastic_cfg(), &plan, &elastic);
        assert_eq!(r.data_moved, 200);
        assert!(r.failovers > 0, "pre-join reads for machine 1 must fail over");
        // 200 records at 10 us -> 2 ms to populate the joiner.
        assert!((r.rto_ms - 2.0).abs() < 1e-9, "rto_ms = {}", r.rto_ms);
    }

    #[test]
    fn crash_rejoin_rto_spans_downtime_plus_migration() {
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 7).with_crash_rejoin(1, 1_000_000, 10_000_000);
        let elastic = ElasticPlan { records_per_event: vec![300] };
        let r = run_elastic(&sim, &elastic_cfg(), &plan, &elastic);
        assert_eq!(r.data_moved, 300);
        // 10 ms of downtime plus 3 ms of restore traffic.
        assert!((r.rto_ms - 13.0).abs() < 1e-9, "rto_ms = {}", r.rto_ms);
        assert!(r.retries > 0 || r.failovers > 0, "the outage must be visible");
    }

    #[test]
    fn admission_control_sheds_under_migration_pressure() {
        // Scale the survivor's queue pressure up: everything fails over
        // to machine 0 while machine 1 restores, and a shed threshold
        // of one rejects most of the pile-up.
        let sim = two_machine_sim();
        let cfg = FaultSimConfig {
            base: SimConfig {
                clients_per_machine: 16,
                queries_per_client: 25,
                ..Default::default()
            },
            degraded: DegradedConfig { shed_queue_depth: 1, migration_ns_per_record: 1_000_000 },
            ..Default::default()
        };
        let plan = FaultPlan::healthy(2, 7).with_crash_rejoin(1, 1_000_000, 2_000_000);
        let elastic = ElasticPlan { records_per_event: vec![10_000] };
        let shed = run_elastic(&sim, &cfg, &plan, &elastic);
        assert!(shed.shed_queries > 0, "queue pressure past the threshold must shed");
        let open = FaultSimConfig {
            degraded: DegradedConfig { shed_queue_depth: 0, ..cfg.degraded },
            ..cfg
        };
        let unshed = run_elastic(&sim, &open, &plan, &elastic);
        assert_eq!(unshed.shed_queries, 0, "threshold 0 disables admission control");
    }

    #[test]
    fn elastic_run_is_bit_for_bit_reproducible() {
        let sim = two_machine_sim();
        let plan = FaultPlan::healthy(2, 42)
            .with_crash_rejoin(0, 3_000_000, 5_000_000)
            .with_scale_in(1, 40_000_000)
            .with_message_loss(0.01);
        let elastic = ElasticPlan { records_per_event: vec![250, 400] };
        let cfg = elastic_cfg();
        let a = run_elastic(&sim, &cfg, &plan, &elastic);
        let b = run_elastic(&sim, &cfg, &plan, &elastic);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same plan + seed + migration load must reproduce bit-for-bit"
        );
    }

    /// Digests of the grid's reports, captured before arrivals were
    /// coalesced: every field of every cell is unchanged by it. On one
    /// core a healthy run does not depend on the parallelism (a
    /// sub-request's shares are served back to back either way), and
    /// the mid-round crash reads three vertices, so parallelism 3 and 8
    /// split it alike.
    const PINNED_GRID: &[(&str, u64)] = &[
        ("p1 c1 healthy", 0x9c09b789fd126e79),
        ("p1 c1 loss", 0xabc3aedda3c30ca0),
        ("p1 c1 crash", 0x19cd7a8c1ad80059),
        ("p1 c1 failover", 0x5212272e40b0b3dc),
        ("p1 c1 shed", 0xec2ed545aaf5c691),
        ("p1 c1 crash-mid-round", 0x9646c9958d9bfebe),
        ("p1 c8 healthy", 0x2995dce8f8bdbdce),
        ("p1 c8 loss", 0x108e18c9bad58dea),
        ("p1 c8 crash", 0x5554d13a2c28a50c),
        ("p1 c8 failover", 0x24606c3b774fb6aa),
        ("p1 c8 shed", 0xc4e6cd8a92bc56f1),
        ("p1 c8 crash-mid-round", 0x8cc9d715a2fb7c4f),
        ("p3 c1 healthy", 0x9c09b789fd126e79),
        ("p3 c1 loss", 0xa2ec08b1eb700e51),
        ("p3 c1 crash", 0x87ae186f9e52a211),
        ("p3 c1 failover", 0x9d543479a6953cab),
        ("p3 c1 shed", 0x66a638b11f31d2a3),
        ("p3 c1 crash-mid-round", 0xde1c9238357dfdbe),
        ("p3 c8 healthy", 0x056193e061834161),
        ("p3 c8 loss", 0x9d0f5d98917b1aae),
        ("p3 c8 crash", 0xa0d6097ce65e0b0d),
        ("p3 c8 failover", 0xe04b6a1684e0c8c1),
        ("p3 c8 shed", 0xce81bcfa8db88e54),
        ("p3 c8 crash-mid-round", 0x6ed6101019a9481c),
        ("p8 c1 healthy", 0x9c09b789fd126e79),
        ("p8 c1 loss", 0xdba9b280bbff8072),
        ("p8 c1 crash", 0x6858cad97fbceb0b),
        ("p8 c1 failover", 0xc4496d92d10bb0a9),
        ("p8 c1 shed", 0x9f974575116658ea),
        ("p8 c1 crash-mid-round", 0xde1c9238357dfdbe),
        ("p8 c8 healthy", 0x6fb1598f01688aa4),
        ("p8 c8 loss", 0x8494254aadc3a0a8),
        ("p8 c8 crash", 0xb85b0595bcc02dcd),
        ("p8 c8 failover", 0xc39dfb78339afe50),
        ("p8 c8 shed", 0x3d478cb40de89b53),
        ("p8 c8 crash-mid-round", 0x6ed6101019a9481c),
    ];

    /// Event count and digest of the traced run's JSON, captured before
    /// arrivals were coalesced.
    const PINNED_TRACE: (usize, u64) = (19_841, 0x121a0157c5068623);

    /// Queue pushes of [`queue_pushes_of_a_fixed_run`]'s run: one
    /// `SubArrive` per arrival run. With one per share it was 37 756.
    const PINNED_PUSHES: u64 = 22_748;

    /// FNV-1a over 64-bit words: the digest the pinned grid compares.
    fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// Every field of a healthy report, floats by their bits.
    fn healthy_digest(r: &SimReport) -> u64 {
        let SimReport {
            throughput_qps,
            mean_latency_ms,
            p50_latency_ms,
            p99_latency_ms,
            max_latency_ms,
            completed,
            reads_per_machine,
            load_rsd,
            sim_seconds,
        } = r;
        let floats = [
            throughput_qps,
            mean_latency_ms,
            p50_latency_ms,
            p99_latency_ms,
            max_latency_ms,
            load_rsd,
            sim_seconds,
        ];
        digest(
            floats
                .map(|x| x.to_bits())
                .into_iter()
                .chain([*completed as u64])
                .chain(reads_per_machine.iter().copied()),
        )
    }

    /// Every field of a fault-plan report, floats by their bits.
    fn faulted_digest(r: &FaultSimReport) -> u64 {
        let FaultSimReport {
            availability,
            goodput_qps,
            offered_qps,
            completed_ok,
            failed,
            retries,
            dropped_messages,
            failovers,
            mean_latency_ms,
            p50_latency_ms,
            p99_latency_ms,
            max_latency_ms,
            reads_per_machine,
            load_rsd,
            sim_seconds,
            rto_ms,
            data_moved,
            shed_queries,
        } = r;
        let floats = [
            availability,
            goodput_qps,
            offered_qps,
            mean_latency_ms,
            p50_latency_ms,
            p99_latency_ms,
            max_latency_ms,
            load_rsd,
            sim_seconds,
            rto_ms,
        ];
        let counts = [
            *completed_ok as u64,
            *failed as u64,
            *retries,
            *dropped_messages,
            *failovers,
            *data_moved,
            *shed_queries,
        ];
        digest(
            floats
                .map(|x| x.to_bits())
                .into_iter()
                .chain(counts)
                .chain(reads_per_machine.iter().copied()),
        )
    }

    /// The pinned grid's cluster: a two-hop Zipf workload over the
    /// small SNB graph on four machines, stored by the masters of an
    /// HDRF placement, whose mirror directory covers about two thirds
    /// of each machine's vertices, so a dead machine's shares draw
    /// their failovers apart.
    fn grid_sim() -> (ClusterSim, MirrorDirectory) {
        let g = small_snb();
        let k = 4;
        let p = partition(
            &g,
            Algorithm::Hdrf,
            &PartitionerConfig::new(k),
            StreamOrder::Random { seed: 4 },
        );
        let w = Workload::generate(&g, WorkloadKind::TwoHop, 60, Skew::Zipf { theta: 0.8 }, 11);
        let store = PartitionedStore::from_owner(g.clone(), k, p.masters(&g));
        (ClusterSim::prepare(&store, &w), MirrorDirectory::for_model(&g, &p))
    }

    /// One labelled run of the pinned grid: its digest and the counters
    /// that show which path it exercised.
    struct GridCell {
        label: String,
        digest: u64,
        dropped: u64,
        failovers: u64,
        retries: u64,
        shed: u64,
    }

    fn grid_cells() -> Vec<GridCell> {
        let faulted = |label: String, r: &FaultSimReport| GridCell {
            label,
            digest: faulted_digest(r),
            dropped: r.dropped_messages,
            failovers: r.failovers,
            retries: r.retries,
            shed: r.shed_queries,
        };
        let (sim, vertex_cut) = grid_sim();
        let k = sim.machines;
        let edge_cut = MirrorDirectory::edge_cut(k);
        let no_migration = ElasticPlan::default();
        let migration = ElasticPlan { records_per_event: vec![2_000] };
        let plans = [
            (
                "loss",
                FaultPlan::healthy(k, 3)
                    .with_message_loss(0.05)
                    .with_straggler(2, 0, 4_000_000, 3.0),
                &edge_cut,
                &no_migration,
                DegradedConfig::default(),
            ),
            (
                "crash",
                FaultPlan::healthy(k, 5).with_recovering_crash(1, 2_000_000, 3_000_000),
                &edge_cut,
                &no_migration,
                DegradedConfig::default(),
            ),
            (
                "failover",
                FaultPlan::healthy(k, 7).with_crash(3, 1_000_000),
                &vertex_cut,
                &no_migration,
                DegradedConfig::default(),
            ),
            (
                "shed",
                FaultPlan::healthy(k, 9).with_crash_rejoin(2, 1_000_000, 2_000_000),
                &vertex_cut,
                &migration,
                DegradedConfig { shed_queue_depth: 1, migration_ns_per_record: 5_000 },
            ),
        ];
        let mut cells = Vec::new();
        for intra_request_parallelism in [1, 3, 8] {
            for cores_per_machine in [1, 8] {
                let base = SimConfig {
                    clients_per_machine: 4,
                    queries_per_client: 12,
                    cores_per_machine,
                    intra_request_parallelism,
                    ..Default::default()
                };
                let cell = format!("p{intra_request_parallelism} c{cores_per_machine}");
                cells.push(GridCell {
                    label: format!("{cell} healthy"),
                    digest: healthy_digest(&sim.run(&base)),
                    dropped: 0,
                    failovers: 0,
                    retries: 0,
                    shed: 0,
                });
                for (name, plan, mirrors, elastic, degraded) in &plans {
                    let cfg = FaultSimConfig { base, degraded: *degraded, ..Default::default() };
                    let r = sim
                        .run_elastic_traced(&cfg, plan, mirrors, elastic, &mut NullSink)
                        .unwrap();
                    cells.push(faulted(format!("{cell} {name}"), &r));
                }
                // Each query's three 1-read shares (parallelism 3 and 8)
                // arrive together at machine 1, which crashes while some
                // are in service and, on one core, the rest are queued.
                let r = crash_mid_round(cores_per_machine, intra_request_parallelism);
                cells.push(faulted(format!("{cell} crash-mid-round"), &r));
            }
        }
        cells
    }

    #[test]
    fn reports_match_the_pinned_grid() {
        let cells = grid_cells();
        let total = |kind: &str, f: fn(&GridCell) -> u64| -> u64 {
            cells.iter().filter(|c| c.label.ends_with(kind)).map(f).sum()
        };
        assert!(total(" loss", |c| c.dropped) > 0, "message loss must drop shares");
        assert!(total(" crash", |c| c.retries) > 0, "the crash must lose work");
        assert!(total("crash-mid-round", |c| c.retries) > 0, "the mid-round crash must lose work");
        assert!(total("failover", |c| c.failovers) > 0, "mirrored reads must fail over");
        assert!(total("failover", |c| c.retries) > 0, "unmirrored reads must ride retries");
        assert!(total("shed", |c| c.shed) > 0, "admission control must shed");
        let got: Vec<(&str, u64)> = cells.iter().map(|c| (c.label.as_str(), c.digest)).collect();
        assert_eq!(got, PINNED_GRID);
    }

    #[test]
    fn traced_run_matches_its_pinned_event_stream() {
        let (sim, vertex_cut) = grid_sim();
        let k = sim.machines;
        let cfg = FaultSimConfig {
            base: SimConfig {
                clients_per_machine: 4,
                queries_per_client: 12,
                cores_per_machine: 1,
                ..Default::default()
            },
            degraded: DegradedConfig { shed_queue_depth: 1, migration_ns_per_record: 5_000 },
            ..Default::default()
        };
        let plan = FaultPlan::healthy(k, 9)
            .with_crash_rejoin(2, 1_000_000, 2_000_000)
            .with_message_loss(0.02);
        let elastic = ElasticPlan { records_per_event: vec![2_000] };
        let mut sink = CollectingSink::new();
        sim.run_elastic_traced(&cfg, &plan, &vertex_cut, &elastic, &mut sink).unwrap();
        sink.check_nesting().unwrap();
        let json = sink.to_json();
        assert_eq!(
            (sink.len(), digest(json.bytes().map(u64::from))),
            PINNED_TRACE,
            "traced run's event stream"
        );
    }

    #[test]
    fn queue_pushes_of_a_fixed_run() {
        // Every push of a healthy two-hop run on four machines, counted
        // exactly: one per client issue, arrival run and share completion.
        let sim = snb_sim(4);
        let cfg = quick_cfg();
        let plan = FaultPlan::healthy(4, 0);
        let mirrors = MirrorDirectory::edge_cut(4);
        let elastic = ElasticPlan::default();
        let mut sink = NullSink;
        let run = FaultRun::new(&sim, &cfg, &plan, &mirrors, &elastic, &mut sink).execute();
        assert_eq!(run.events.pushes(), PINNED_PUSHES);
    }
}
