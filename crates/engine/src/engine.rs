//! The synchronous GAS engine.
//!
//! Executes a [`VertexProgram`] over a [`Placement`] in supersteps,
//! producing both the **real computation result** and a full
//! communication/compute [`RunReport`]. See the crate docs for the
//! message-accounting semantics; the short version per iteration:
//!
//! 1. **Gather** — each machine scans its local edges; edges incident to
//!    an active vertex in the gather direction contribute, from the
//!    neighbour's published value, to that vertex's accumulator (one
//!    slot per vertex, seeded at the identity). With sender-side
//!    aggregation, each machine sends *one* partial per (active vertex,
//!    machine) pair; without it (the ablation of Fig. 10(a) vs 10(b)) one
//!    message per remote edge.
//! 2. **Apply** — the master merges the partials and computes the new
//!    value; one apply op of compute.
//! 3. **Update/Scatter** — if the value changed (or it is the seeding
//!    iteration for the initial frontier), the master pushes the new
//!    value to every mirror that future gathers will read it from, and
//!    activates scatter-direction neighbours.
//!
//! A superstep runs one of two bodies that produce the same report bit
//! for bit: the *dense* body above, or — when the frontier touches few
//! edges — a *sparse* body that walks the active vertices' own adjacency
//! and costs O(frontier + its incident edges + k) instead of O(n + m)
//! (DESIGN.md §3.3, "Frontier representation and the sparse/dense
//! switch").
//!
//! The dense body charges in bulk what a full superstep repeats
//! (DESIGN.md §3.3, "Full-frontier supersteps"). When every vertex is
//! active, the gather scan does not probe the frontier, and the
//! aggregated gather partials are counted once per run and added in
//! each such superstep. An all-active program's scatter activates
//! nothing, so its edge work is charged by a second scan of the edge
//! lists instead of a walk from each changed vertex. Every charge is an
//! integer count, so neither shortcut can change a report bit.
#![expect(
    clippy::indexing_slicing,
    reason = "per-machine op counters and byte tables are sized k at run construction and indexed by machine ids below k (edge_parts entries, masters, set bits of the k-bit machine sets); per-vertex scratch is sized n and indexed by vertex ids of the graph the run was built for; in_edge_ids entries are edge indices below m and index edge_parts, which has m entries"
)]

use crate::cost::{CostModel, FaultSummary, IterationStats, RunReport};
use crate::placement::Placement;
use crate::program::VertexProgram;
use crate::wire::encoded_len;
use sgp_fault::{FaultEvent, FaultPlan, PlanError};
use sgp_graph::{Graph, VertexId};
use sgp_partition::PartitionId;
use sgp_trace::{keys, NullSink, TraceSink};

/// Engine execution options.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Sender-side aggregation (on by default; §2 and Appendix B call it
    /// "a common optimization technique for reducing network overhead").
    pub sender_side_aggregation: bool,
    /// The simulated-hardware cost model.
    pub cost: CostModel,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { sender_side_aggregation: true, cost: CostModel::default() }
    }
}

/// Why [`run_program_with`] refused a run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The plan covers a different number of machines than the
    /// placement.
    MachineCountMismatch {
        /// Machines the plan was written for.
        plan: usize,
        /// Machines of the placement.
        placement: usize,
    },
    /// The plan fails [`FaultPlan::validate`].
    InvalidPlan(PlanError),
    /// The program's initial frontier names a vertex the graph does not
    /// have (the largest such vertex).
    FrontierOutOfRange {
        /// The vertex named.
        vertex: VertexId,
        /// Vertices of the graph.
        vertices: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MachineCountMismatch { plan, placement } => {
                write!(f, "fault plan covers {plan} machines but the placement has {placement}")
            }
            EngineError::InvalidPlan(e) => write!(f, "invalid fault plan: {e}"),
            EngineError::FrontierOutOfRange { vertex, vertices } => {
                write!(
                    f,
                    "initial frontier names vertex {vertex} but the graph has {vertices} vertices"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Runs `prog` to completion, healthy and untraced; returns the final
/// vertex data and the run report.
///
/// # Panics
/// Panics if `placement` was not built for a graph with `g`'s vertex
/// and edge counts, and with "initial frontier names vertex … but the
/// graph has …" if `prog`'s initial frontier names a vertex outside `g`
/// ([`run_program_with`] returns that as
/// [`EngineError::FrontierOutOfRange`]).
#[expect(
    clippy::panic,
    reason = "the documented panic of the healthy entry; run_program_with returns the error"
)]
pub fn run_program<P: VertexProgram>(
    g: &Graph,
    placement: &Placement,
    prog: &P,
    opts: &EngineOptions,
) -> (Vec<P::VertexData>, RunReport) {
    match run_program_impl(g, placement, prog, opts, None, &mut NullSink, BodyPolicy::Auto) {
        Ok(run) => run,
        Err(e) => panic!("{e}"),
    }
}

/// The general entry: runs `prog` under an optional deterministic
/// [`FaultPlan`] (DESIGN.md §7), recording trace events into `sink`
/// (DESIGN.md §9; pass [`NullSink`] for none). Errors when a plan is
/// given and does not fit, or when `prog`'s initial frontier names a
/// vertex outside `g`.
///
/// All stamps are **simulated nanoseconds** from the cost model, so the
/// emitted trace is a pure function of the inputs — identical runs yield
/// byte-identical traces. With a [`NullSink`] the instrumentation
/// monomorphizes away; with no plan the computed result and report are
/// exactly those of [`run_program`].
///
/// The engine models faults as **pause-and-recover**: the synchronous
/// barrier makes every superstep a global checkpoint, so the computed
/// result is *identical* to the healthy run — what changes is the cost
/// accounting. Straggler windows multiply the affected machine's
/// compute time inside each overlapping superstep; a crash is charged
/// once, at the start of the first superstep after its crash time:
/// masters with a live mirror are restored by shipping their vertex
/// data (bytes on the NIC), masters without one are recomputed
/// (apply + edge ops), and both costs land in `total_wall_ns` and the
/// report's [`FaultSummary`], next to fault-recovery spans and crash
/// counters in the trace. Message loss does not apply: barrier delivery
/// is reliable-retransmit, which the recovery model subsumes.
///
/// # Panics
/// Panics if `placement` was not built for a graph with `g`'s vertex
/// and edge counts.
pub fn run_program_with<P: VertexProgram, S: TraceSink>(
    g: &Graph,
    placement: &Placement,
    prog: &P,
    opts: &EngineOptions,
    plan: Option<&FaultPlan>,
    sink: &mut S,
) -> Result<(Vec<P::VertexData>, RunReport), EngineError> {
    if let Some(plan) = plan {
        if plan.machines != placement.k {
            return Err(EngineError::MachineCountMismatch {
                plan: plan.machines,
                placement: placement.k,
            });
        }
        plan.validate().map_err(EngineError::InvalidPlan)?;
    }
    run_program_impl(g, placement, prog, opts, plan, sink, BodyPolicy::Auto)
}

/// Tracks which plan events have been charged and accumulates the
/// fault summary across supersteps.
struct FaultState<'p> {
    plan: &'p FaultPlan,
    fired: Vec<bool>,
    summary: FaultSummary,
}

impl FaultState<'_> {
    /// Returns the fault-inflated wall time of one superstep and
    /// charges any crash whose time has come.
    #[expect(
        clippy::too_many_arguments,
        reason = "one superstep's inputs, borrowed from the run loop's locals; a struct would only repackage them"
    )]
    fn charge_iteration(
        &mut self,
        g: &Graph,
        placement: &Placement,
        cost: &CostModel,
        compute_ns: &[f64],
        machine_bytes: &[u64],
        iter_start_ns: f64,
        healthy_wall: f64,
        data_bytes: usize,
    ) -> f64 {
        let t = iter_start_ns as u64;
        let mut wall: f64 = 0.0;
        for (m, &c) in compute_ns.iter().enumerate() {
            let net_ns = machine_bytes[m] as f64 / cost.bytes_per_second * 1e9;
            wall = wall.max(c * self.plan.slowdown(m as u32, t) + net_ns);
        }
        wall += cost.barrier_ns;
        self.summary.straggler_extra_ns += (wall - healthy_wall).max(0.0);
        for (i, e) in self.plan.events.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if let FaultEvent::Crash { machine, at_ns, .. } = *e {
                if t < at_ns {
                    continue;
                }
                self.fired[i] = true;
                self.summary.crashes += 1;
                let mut bytes = 0u64;
                let mut recompute_ns = 0.0f64;
                for (v, &master) in placement.masters.iter().enumerate() {
                    if master != machine {
                        continue;
                    }
                    if placement.replica_count(v as VertexId) >= 2 {
                        self.summary.recovered_vertices += 1;
                        bytes += encoded_len(data_bytes) as u64;
                    } else {
                        self.summary.recomputed_vertices += 1;
                        recompute_ns +=
                            cost.ns_per_apply + cost.ns_per_edge_op * g.degree(v as u32) as f64;
                    }
                }
                let recovery_ns = bytes as f64 / cost.bytes_per_second * 1e9 + recompute_ns;
                self.summary.recovery_bytes += bytes;
                self.summary.recovery_ns += recovery_ns;
                wall += recovery_ns;
            }
        }
        wall
    }
}

/// A superstep whose frontier has more than `m / SPARSE_EDGE_DIVISOR`
/// gather edges scans every machine's edge list; below that it walks the
/// frontier's own adjacency. Ligra's rule with 1/64 for its 1/20: to merge
/// in the scan's order the walk pays a sort entry per edge and a random
/// read per neighbour, measured at 61-71 ns per gather edge against the
/// scan's 1.4 ns per stored edge on the power-law benchmark graph (24-25
/// against 1.5 on the lattice), so it breaks even near m/45 there; in a
/// sweep of 8, 16, 32, 64 and 128 on both analytics workloads no value
/// beat 64 and 128 lost 1.6x on the lattice (DESIGN.md §3.3).
const SPARSE_EDGE_DIVISOR: usize = 64;

/// Which gather/apply/scatter body a superstep runs. The public entry
/// points always pass `Auto`; the forced variants exist so the tests can
/// prove that both bodies produce the same run.
#[derive(Debug, Clone, Copy)]
enum BodyPolicy {
    /// Per superstep, from the frontier's gather-edge volume.
    Auto,
    #[cfg(test)]
    Dense,
    #[cfg(test)]
    Sparse,
}

/// One gather edge of a vertex in the sparse body: machine, `2 * edge
/// index + (0 for in, 1 for out)`, neighbour. The derived order — machine,
/// then edge index, then in-before-out — is the order in which the dense
/// body's per-machine scan meets the same edges.
type GatherEdge = (PartitionId, usize, VertexId);

/// Message and compute accounting of the superstep in flight: per
/// machine, the gather/scatter edge operations and applies it executed
/// (priced at the barrier by [`CostModel::compute_ns`]) and the bytes
/// through its NIC. The bodies build one over the run's vectors at
/// their top, so the hot loops index plain slices.
struct Tally<'t> {
    edge_ops: &'t mut [u64],
    applies: &'t mut [u64],
    sent_bytes: &'t mut [u64],
    recv_bytes: &'t mut [u64],
    gather_messages: u64,
    update_messages: u64,
}

impl<'t> Tally<'t> {
    fn over(
        edge_ops: &'t mut [u64],
        applies: &'t mut [u64],
        sent_bytes: &'t mut [u64],
        recv_bytes: &'t mut [u64],
    ) -> Self {
        Tally { edge_ops, applies, sent_bytes, recv_bytes, gather_messages: 0, update_messages: 0 }
    }

    /// One gather message from `machine` to the master, unless the
    /// contribution was computed at the master itself.
    #[inline]
    fn gather_message<P: VertexProgram>(&mut self, machine: usize, master: PartitionId) {
        let master = master as usize;
        if master != machine {
            self.gather_messages += 1;
            let len = encoded_len(P::GATHER_BYTES) as u64;
            self.sent_bytes[machine] += len;
            self.recv_bytes[master] += len;
        }
    }
}

/// Aggregated gather partials of one superstep, by sending and
/// receiving machine.
struct Partials {
    sent_bytes: Vec<u64>,
    recv_bytes: Vec<u64>,
    gather_messages: u64,
}

/// The fixed inputs of a run and the per-vertex steps both bodies share.
struct Ctx<'a, P> {
    g: &'a Graph,
    placement: &'a Placement,
    prog: &'a P,
    aggregate: bool,
    gather_in: bool,
    gather_out: bool,
    /// Scatter directions, both `false` unless the program activates on change.
    scatter_in: bool,
    scatter_out: bool,
}

impl<P> Clone for Ctx<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P> Copy for Ctx<'_, P> {}

impl<P: VertexProgram> Ctx<'_, P> {
    /// Number of in- and/or out-edges of `v`.
    fn edge_count(self, v: VertexId, use_in: bool, use_out: bool) -> usize {
        let ins = if use_in { self.g.in_degree(v) } else { 0 };
        let outs = if use_out { self.g.out_degree(v) } else { 0 };
        ins + outs
    }

    /// Do the in- and/or out-edges of `vertices` number at most `limit`?
    /// Stops summing once they do not.
    fn edges_within(
        self,
        vertices: &[VertexId],
        use_in: bool,
        use_out: bool,
        limit: usize,
    ) -> bool {
        let mut volume = 0usize;
        for &v in vertices {
            volume += self.edge_count(v, use_in, use_out);
            if volume > limit {
                return false;
            }
        }
        true
    }

    /// Dense-body gather: one scan of every machine's edge list. The
    /// directions are const so each program gets a loop without the
    /// other direction's test, and the function stays out of line with
    /// its slices as parameters so the loop knows they are disjoint;
    /// either one alone gives back 5-15 % of a partially active scan.
    /// `ALL` says every vertex is active, so the scan skips the probe.
    #[inline(never)]
    fn gather_scan<const IN: bool, const OUT: bool, const ALL: bool>(
        self,
        published: &[P::Gather],
        active: &[bool],
        acc: &mut [P::Gather],
        tally: &mut Tally<'_>,
    ) {
        let (g, placement, prog) = (self.g, self.placement, self.prog);
        let count_messages = !self.aggregate;
        for machine in 0..placement.k {
            // Counted in a local so the counter stays in a register.
            let mut ops = 0u64;
            for e in placement.local_edges(machine) {
                // Edge (u, v): contributes to v when gathering over IN,
                // to u when gathering over OUT.
                if IN && (ALL || active[e.dst as usize]) {
                    let contrib = prog.gather_edge(g, e.dst, e.src, &published[e.src as usize]);
                    merge_into(prog, &mut acc[e.dst as usize], contrib);
                    ops += 1;
                    if count_messages {
                        tally.gather_message::<P>(machine, placement.masters[e.dst as usize]);
                    }
                }
                if OUT && (ALL || active[e.src as usize]) {
                    let contrib = prog.gather_edge(g, e.src, e.dst, &published[e.dst as usize]);
                    merge_into(prog, &mut acc[e.src as usize], contrib);
                    ops += 1;
                    if count_messages {
                        tally.gather_message::<P>(machine, placement.masters[e.src as usize]);
                    }
                }
            }
            tally.edge_ops[machine] += ops;
        }
    }

    /// Dense-body scatter of an all-active program, whose only effect
    /// is the edge work: one scan of every machine's edge list charges
    /// each edge once per changed endpoint on the scatter side, as the
    /// walk from the changed vertices would (a changed self-loop twice
    /// under a BOTH scatter). Same shape as [`Ctx::gather_scan`].
    #[inline(never)]
    fn scatter_scan<const IN: bool, const OUT: bool>(self, changed: &[bool], edge_ops: &mut [u64]) {
        for (machine, machine_ops) in edge_ops.iter_mut().enumerate() {
            let mut ops = 0u64;
            for e in self.placement.local_edges(machine) {
                // Edge (u, v) is an out-edge of u and an in-edge of v.
                if OUT {
                    ops += u64::from(changed[e.src as usize]);
                }
                if IN {
                    ops += u64::from(changed[e.dst as usize]);
                }
            }
            *machine_ops += ops;
        }
    }

    /// Sparse-body gather of one active vertex from its own adjacency,
    /// merged in the order the per-machine scan would have produced.
    fn gather_vertex(
        self,
        v: VertexId,
        published: &[P::Gather],
        slot: &mut P::Gather,
        edges: &mut Vec<GatherEdge>,
        tally: &mut Tally<'_>,
    ) {
        let (g, placement) = (self.g, self.placement);
        edges.clear();
        if self.gather_in {
            for (&idx, &w) in placement.in_edge_ids(g, v).iter().zip(g.in_neighbors(v)) {
                let idx = idx as usize;
                edges.push((placement.edge_parts[idx], 2 * idx, w));
            }
        }
        if self.gather_out {
            for (idx, &w) in g.out_edge_range(v).zip(g.out_neighbors(v)) {
                edges.push((placement.edge_parts[idx], 2 * idx + 1, w));
            }
        }
        edges.sort_unstable();
        let master = placement.masters[v as usize];
        for &(machine, _, w) in edges.iter() {
            let machine = machine as usize;
            let contrib = self.prog.gather_edge(g, v, w, &published[w as usize]);
            merge_into(self.prog, slot, contrib);
            tally.edge_ops[machine] += 1;
            if !self.aggregate {
                tally.gather_message::<P>(machine, master);
            }
        }
    }

    /// Aggregated gather partials of one active vertex: one per mirror
    /// machine holding gather edges.
    #[inline]
    fn count_gather_partials(self, v: VertexId, tally: &mut Tally<'_>) {
        let master = self.placement.masters[v as usize];
        for machine in self.placement.gather_partial_parts(v, self.gather_in, self.gather_out) {
            tally.gather_message::<P>(machine as usize, master);
        }
    }

    /// The aggregated gather partials of a full frontier, which are the
    /// same in every superstep that has one.
    fn full_frontier_partials(self) -> Partials {
        let k = self.placement.k;
        let (mut sent_bytes, mut recv_bytes) = (vec![0; k], vec![0; k]);
        let mut tally = Tally::over(&mut [], &mut [], &mut sent_bytes, &mut recv_bytes);
        for v in self.g.vertices() {
            self.count_gather_partials(v, &mut tally);
        }
        let gather_messages = tally.gather_messages;
        Partials { sent_bytes, recv_bytes, gather_messages }
    }

    /// Apply at the master: takes the slot's total and leaves the slot
    /// at the identity, and republishes `v` if its value changed. Returns
    /// whether `v` announces its value: it changed, or this is the
    /// seeding superstep — the initial frontier propagates even when
    /// apply leaves the value unchanged (e.g. the SSSP source keeps
    /// distance 0 but must still announce it).
    #[inline]
    fn apply_vertex(
        self,
        v: VertexId,
        iteration: usize,
        value: &mut P::VertexData,
        slot: &mut P::Gather,
        published: &mut P::Gather,
        tally: &mut Tally<'_>,
    ) -> bool {
        tally.applies[self.placement.masters[v as usize] as usize] += 1;
        let total = std::mem::replace(slot, self.prog.gather_identity());
        let new = self.prog.apply(self.g, v, value, total, iteration);
        if new != *value {
            *published = self.prog.publish(self.g, v, &new);
            *value = new;
            true
        } else {
            iteration == 0
        }
    }

    /// Dense-body scatter: every vertex flagged in `changed`, clearing the flags.
    fn scatter_flagged(
        self,
        changed: &mut [bool],
        tally: &mut Tally<'_>,
        mut mark: impl FnMut(VertexId),
    ) {
        for (v, flag) in changed.iter_mut().enumerate() {
            if std::mem::take(flag) {
                self.scatter_vertex(v as VertexId, tally, &mut mark);
            }
        }
    }

    /// Vertex-data updates of one changed vertex to the mirrors that
    /// future gathers read.
    #[inline]
    fn send_updates(self, v: VertexId, tally: &mut Tally<'_>) {
        let placement = self.placement;
        let master = placement.masters[v as usize] as usize;
        for machine in placement.update_target_parts(v, self.gather_in, self.gather_out) {
            tally.update_messages += 1;
            let len = encoded_len(P::DATA_BYTES) as u64;
            tally.sent_bytes[master] += len;
            tally.recv_bytes[machine as usize] += len;
        }
    }

    /// Update and scatter of one changed vertex; `mark` sees every
    /// neighbour the scatter activates.
    #[inline]
    fn scatter_vertex(self, v: VertexId, tally: &mut Tally<'_>, mut mark: impl FnMut(VertexId)) {
        let (g, placement) = (self.g, self.placement);
        self.send_updates(v, tally);
        // Activation along the scatter direction; the scatter edge work
        // executes on the machine storing each edge.
        if self.scatter_out {
            let machines = &placement.edge_parts[g.out_edge_range(v)];
            for (&machine, &w) in machines.iter().zip(g.out_neighbors(v)) {
                mark(w);
                tally.edge_ops[machine as usize] += 1;
            }
        }
        if self.scatter_in {
            for (&idx, &w) in placement.in_edge_ids(g, v).iter().zip(g.in_neighbors(v)) {
                mark(w);
                tally.edge_ops[placement.edge_parts[idx as usize] as usize] += 1;
            }
        }
    }
}

/// The state of one engine run.
///
/// The active set is the bitmap `active`, which the dense body probes
/// per edge; while `listed`, `frontier` holds the same set as an
/// ascending list, which the sparse body walks. A superstep that
/// scatters over few edges lists the frontier it builds as it marks it;
/// otherwise the list is made only if the switching rule asks for it,
/// by one scan of the bitmap. `published` holds what each vertex's
/// current data offers its neighbours' gathers. The scratch fields are
/// allocated once per run and are clean (`acc` all at the gather
/// identity, the flags all `false`, the lists empty) between
/// supersteps; a sparse superstep on a listed frontier restores that by
/// touching only the entries it used, so it costs O(frontier + its
/// incident edges + k).
struct Run<'a, P: VertexProgram> {
    cx: Ctx<'a, P>,
    data: Vec<P::VertexData>,
    active: Vec<bool>,
    frontier: Vec<VertexId>,
    listed: bool,

    /// [`VertexProgram::publish`] of every vertex's current data.
    published: Vec<P::Gather>,
    acc: Vec<P::Gather>,
    /// Dense body: vertices whose value changed this superstep.
    changed: Vec<bool>,
    /// Sparse body: the same set, ascending.
    changed_list: Vec<VertexId>,
    /// The next superstep's `active`, `frontier` and `listed`.
    next_active: Vec<bool>,
    next_frontier: Vec<VertexId>,
    next_listed: bool,
    gather_edges: Vec<GatherEdge>,
    /// Dense body with aggregation: the partials of a full frontier,
    /// counted at the first superstep that has one.
    full_partials: Option<Partials>,

    // Accounting of the last superstep.
    edge_ops: Vec<u64>,
    applies: Vec<u64>,
    sent_bytes: Vec<u64>,
    recv_bytes: Vec<u64>,
    gather_messages: u64,
    update_messages: u64,
}

impl<'a, P: VertexProgram> Run<'a, P> {
    /// Refuses an initial frontier that names a vertex outside `g`.
    fn new(
        g: &'a Graph,
        placement: &'a Placement,
        prog: &'a P,
        opts: &EngineOptions,
    ) -> Result<Self, EngineError> {
        let n = g.num_vertices();
        let k = placement.k;
        let mut active = vec![false; n];
        let (frontier, listed) = match prog.initial_frontier(g) {
            Some(mut frontier) => {
                frontier.sort_unstable();
                frontier.dedup();
                if let Some(&vertex) = frontier.last().filter(|&&v| v as usize >= n) {
                    return Err(EngineError::FrontierOutOfRange { vertex, vertices: n });
                }
                for &v in &frontier {
                    active[v as usize] = true;
                }
                (frontier, true)
            }
            None => {
                active.fill(true);
                (Vec::new(), false)
            }
        };
        let (gather_dir, scatter_dir) = (prog.gather_direction(), prog.scatter_direction());
        let activates = prog.activates_on_change();
        let data: Vec<P::VertexData> = g.vertices().map(|v| prog.init(v, g)).collect();
        Ok(Run {
            cx: Ctx {
                g,
                placement,
                prog,
                aggregate: opts.sender_side_aggregation,
                gather_in: gather_dir.uses_in(),
                gather_out: gather_dir.uses_out(),
                scatter_in: activates && scatter_dir.uses_in(),
                scatter_out: activates && scatter_dir.uses_out(),
            },
            published: g.vertices().zip(&data).map(|(v, d)| prog.publish(g, v, d)).collect(),
            data,
            active,
            frontier,
            listed,
            acc: vec![prog.gather_identity(); n],
            changed: vec![false; n],
            changed_list: Vec::new(),
            next_active: vec![false; n],
            next_frontier: Vec::new(),
            next_listed: false,
            gather_edges: Vec::new(),
            full_partials: None,
            edge_ops: vec![0; k],
            applies: vec![0; k],
            sent_bytes: vec![0; k],
            recv_bytes: vec![0; k],
            gather_messages: 0,
            update_messages: 0,
        })
    }

    fn active_count(&self) -> usize {
        if self.listed {
            self.frontier.len()
        } else {
            self.active.iter().filter(|&&a| a).count()
        }
    }

    /// The switching rule: is the frontier's gather-edge volume at most
    /// `limit`? Answers from the list when there is one; otherwise
    /// lists the frontier while summing and gives up on both as soon as
    /// the volume passes `limit`, so a large frontier costs a short
    /// prefix of the bitmap. On `true` the frontier is listed.
    fn frontier_within(&mut self, limit: usize) -> bool {
        let cx = self.cx;
        if self.listed {
            return cx.edges_within(&self.frontier, cx.gather_in, cx.gather_out, limit);
        }
        let mut volume = 0usize;
        for v in cx.g.vertices() {
            if self.active[v as usize] {
                volume += cx.edge_count(v, cx.gather_in, cx.gather_out);
                if volume > limit {
                    self.frontier.clear();
                    return false;
                }
                self.frontier.push(v);
            }
        }
        self.listed = true;
        true
    }

    /// Runs one superstep over the `active_count` active vertices and
    /// installs the frontier it produced.
    fn superstep(&mut self, iteration: usize, active_count: usize, policy: BodyPolicy) {
        let cx = self.cx;
        self.edge_ops.fill(0);
        self.applies.fill(0);
        self.sent_bytes.fill(0);
        self.recv_bytes.fill(0);
        let sparse = match policy {
            // All-active programs stay on the scan: their frontier is the graph.
            BodyPolicy::Auto => {
                !cx.prog.all_active()
                    && self.frontier_within(cx.g.num_edges() / SPARSE_EDGE_DIVISOR)
            }
            #[cfg(test)]
            BodyPolicy::Dense => false,
            #[cfg(test)]
            BodyPolicy::Sparse => self.frontier_within(usize::MAX),
        };
        if sparse {
            self.sparse_superstep(iteration);
        } else {
            self.dense_superstep(iteration, active_count == self.active.len());
        }

        if cx.prog.all_active() {
            if active_count != self.active.len() {
                // A partial initial frontier; every later superstep is full.
                self.active.fill(true);
                self.frontier.clear();
                self.listed = false;
            }
            return;
        }
        if self.listed {
            for &v in &self.frontier {
                self.active[v as usize] = false;
            }
        } else {
            self.active.fill(false);
        }
        std::mem::swap(&mut self.active, &mut self.next_active);
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        self.listed = std::mem::take(&mut self.next_listed);
        self.next_frontier.clear();
    }

    /// The dense body: gather scans every machine's edge list and every
    /// other pass is a range over a bitmap, except an all-active
    /// program's scatter, which is a scan too. The next frontier is left
    /// as a bitmap. On a `full` frontier (every vertex active) the
    /// gather scan skips the activity probe and the aggregated partials
    /// are the run's cached ones.
    fn dense_superstep(&mut self, iteration: usize, full: bool) {
        let cx = self.cx;
        let n = cx.g.num_vertices();
        let mut tally = Tally::over(
            &mut self.edge_ops,
            &mut self.applies,
            &mut self.sent_bytes,
            &mut self.recv_bytes,
        );
        let (data, published, active) =
            (&mut self.data[..], &mut self.published[..], &self.active[..]);
        let (acc, changed) = (&mut self.acc[..], &mut self.changed[..]);

        let (t, p) = (&mut tally, &*published);
        match (cx.gather_in, cx.gather_out, full) {
            (true, false, false) => cx.gather_scan::<true, false, false>(p, active, acc, t),
            (true, false, true) => cx.gather_scan::<true, false, true>(p, active, acc, t),
            (false, true, false) => cx.gather_scan::<false, true, false>(p, active, acc, t),
            (false, true, true) => cx.gather_scan::<false, true, true>(p, active, acc, t),
            (true, true, false) => cx.gather_scan::<true, true, false>(p, active, acc, t),
            (true, true, true) => cx.gather_scan::<true, true, true>(p, active, acc, t),
            (false, false, _) => {}
        }
        if cx.aggregate && full {
            // Counts, so adding them in a block is exact.
            let partials = self.full_partials.get_or_insert_with(|| cx.full_frontier_partials());
            for (total, &bytes) in tally.sent_bytes.iter_mut().zip(&partials.sent_bytes) {
                *total += bytes;
            }
            for (total, &bytes) in tally.recv_bytes.iter_mut().zip(&partials.recv_bytes) {
                *total += bytes;
            }
            tally.gather_messages += partials.gather_messages;
        } else if cx.aggregate {
            for (v, &is_active) in active.iter().enumerate() {
                if is_active {
                    cx.count_gather_partials(v as VertexId, &mut tally);
                }
            }
        }

        for v in 0..n {
            if active[v]
                && cx.apply_vertex(
                    v as VertexId,
                    iteration,
                    &mut data[v],
                    &mut acc[v],
                    &mut published[v],
                    &mut tally,
                )
            {
                changed[v] = true;
            }
        }

        if cx.prog.all_active() {
            // The next frontier is the whole graph whatever scatter
            // reaches, so only the edge work is charged, by a scan.
            let edge_ops = &mut *tally.edge_ops;
            match (cx.scatter_in, cx.scatter_out) {
                (true, false) => cx.scatter_scan::<true, false>(changed, edge_ops),
                (false, true) => cx.scatter_scan::<false, true>(changed, edge_ops),
                (true, true) => cx.scatter_scan::<true, true>(changed, edge_ops),
                (false, false) => {}
            }
            for (v, flag) in changed.iter_mut().enumerate() {
                if std::mem::take(flag) {
                    cx.send_updates(v as VertexId, &mut tally);
                }
            }
        } else {
            let next_active = &mut self.next_active[..];
            cx.scatter_flagged(changed, &mut tally, |w| next_active[w as usize] = true);
        }
        (self.gather_messages, self.update_messages) =
            (tally.gather_messages, tally.update_messages);
    }

    /// The sparse body: every pass is a walk over the frontier list.
    fn sparse_superstep(&mut self, iteration: usize) {
        let cx = self.cx;
        let mut tally = Tally::over(
            &mut self.edge_ops,
            &mut self.applies,
            &mut self.sent_bytes,
            &mut self.recv_bytes,
        );
        let (data, published, acc) =
            (&mut self.data[..], &mut self.published[..], &mut self.acc[..]);
        let (frontier, changed) = (&self.frontier[..], &mut self.changed_list);

        for &v in frontier {
            let slot = &mut acc[v as usize];
            cx.gather_vertex(v, published, slot, &mut self.gather_edges, &mut tally);
            if cx.aggregate {
                cx.count_gather_partials(v, &mut tally);
            }
        }
        for &v in frontier {
            let i = v as usize;
            let (value, slot, out) = (&mut data[i], &mut acc[i], &mut published[i]);
            if cx.apply_vertex(v, iteration, value, slot, out, &mut tally) {
                changed.push(v);
            }
        }

        let (next_active, next_frontier) = (&mut self.next_active[..], &mut self.next_frontier);
        let limit = cx.g.num_edges() / SPARSE_EDGE_DIVISOR;
        if cx.prog.all_active() {
            for &v in changed.iter() {
                cx.scatter_vertex(v, &mut tally, |_| {});
            }
        } else if cx.edges_within(changed, cx.scatter_in, cx.scatter_out, limit) {
            // Few scatter edges: listing what they reach as it is
            // marked, and sorting it, beats a scan of the bitmap.
            for &v in changed.iter() {
                cx.scatter_vertex(v, &mut tally, |w| {
                    if !next_active[w as usize] {
                        next_active[w as usize] = true;
                        next_frontier.push(w);
                    }
                });
            }
            next_frontier.sort_unstable();
            self.next_listed = true;
        } else {
            for &v in changed.iter() {
                cx.scatter_vertex(v, &mut tally, |w| next_active[w as usize] = true);
            }
        }
        changed.clear();
        (self.gather_messages, self.update_messages) =
            (tally.gather_messages, tally.update_messages);
    }
}

fn run_program_impl<P: VertexProgram, S: TraceSink>(
    g: &Graph,
    placement: &Placement,
    prog: &P,
    opts: &EngineOptions,
    plan: Option<&FaultPlan>,
    sink: &mut S,
    policy: BodyPolicy,
) -> Result<(Vec<P::VertexData>, RunReport), EngineError> {
    let k = placement.k;
    assert_eq!(placement.num_vertices(), g.num_vertices(), "placement does not match graph");
    assert_eq!(placement.edge_parts.len(), g.num_edges(), "placement does not match graph");

    let mut run = Run::new(g, placement, prog, opts)?;
    let mut iterations: Vec<IterationStats> = Vec::new();
    let mut machine_total_ns = vec![0.0f64; k];
    let mut total_wall_ns = 0.0f64;
    let mut fault_state = plan.map(|p| FaultState {
        plan: p,
        fired: vec![false; p.events.len()],
        summary: FaultSummary::default(),
    });

    let run_span = sink.guard_span(keys::ENGINE_RUN, 0, 0);
    for iteration in 0..prog.max_iterations() {
        let active_count = run.active_count();
        if active_count == 0 {
            break;
        }
        let iter_start_stamp = total_wall_ns as u64;
        let superstep_span =
            sink.guard_span(keys::ENGINE_SUPERSTEP, iteration as u64, iter_start_stamp);

        run.superstep(iteration, active_count, policy);
        let compute_ns: Vec<f64> = std::iter::zip(&run.edge_ops, &run.applies)
            .map(|(&edge_ops, &applies)| opts.cost.compute_ns(edge_ops, applies))
            .collect();
        let (sent_bytes, recv_bytes) = (&run.sent_bytes, &run.recv_bytes);
        let (gather_messages, update_messages) = (run.gather_messages, run.update_messages);

        // ---- Barrier: iteration wall time ----------------------------------
        let mut wall: f64 = 0.0;
        let mut machine_bytes = vec![0u64; k];
        for m in 0..k {
            machine_bytes[m] = sent_bytes[m] + recv_bytes[m];
            let net_ns = machine_bytes[m] as f64 / opts.cost.bytes_per_second * 1e9;
            wall = wall.max(compute_ns[m] + net_ns);
            machine_total_ns[m] += compute_ns[m];
        }
        wall += opts.cost.barrier_ns;
        if let Some(state) = fault_state.as_mut() {
            let crashes_before = state.summary.crashes;
            let recovery_bytes_before = state.summary.recovery_bytes;
            let recovery_ns_before = state.summary.recovery_ns;
            wall = state.charge_iteration(
                g,
                placement,
                &opts.cost,
                &compute_ns,
                &machine_bytes,
                total_wall_ns,
                wall,
                P::DATA_BYTES,
            );
            if sink.enabled() && state.summary.crashes > crashes_before {
                let recovery_ns = state.summary.recovery_ns - recovery_ns_before;
                sink.guard_span(keys::ENGINE_FAULT_RECOVERY, iteration as u64, iter_start_stamp)
                    .exit(sink, iter_start_stamp + recovery_ns as u64);
                sink.counter_add(
                    keys::ENGINE_FAULT_CRASHES,
                    iteration as u64,
                    (state.summary.crashes - crashes_before) as u64,
                );
                sink.counter_add(
                    keys::ENGINE_FAULT_RECOVERY_BYTES,
                    iteration as u64,
                    state.summary.recovery_bytes - recovery_bytes_before,
                );
            }
        }
        total_wall_ns += wall;

        if sink.enabled() {
            sink.counter_add(keys::ENGINE_ACTIVE_VERTICES, iteration as u64, active_count as u64);
            sink.counter_add(keys::ENGINE_GATHER_MESSAGES, iteration as u64, gather_messages);
            sink.counter_add(keys::ENGINE_UPDATE_MESSAGES, iteration as u64, update_messages);
            sink.counter_add(
                keys::ENGINE_NETWORK_BYTES,
                iteration as u64,
                sent_bytes.iter().sum::<u64>(),
            );
            for m in 0..k {
                sink.counter_add(keys::ENGINE_MACHINE_BYTES, m as u64, machine_bytes[m]);
                sink.counter_add(keys::ENGINE_MACHINE_COMPUTE_NS, m as u64, compute_ns[m] as u64);
                // Barrier wait: how long machine m idles between finishing
                // its own compute+network and the (fault-inflated) barrier.
                let net_ns = machine_bytes[m] as f64 / opts.cost.bytes_per_second * 1e9;
                let wait = (wall - (compute_ns[m] + net_ns)).max(0.0);
                sink.histogram_record(keys::ENGINE_BARRIER_WAIT_NS, m as u64, wait as u64);
            }
        }

        iterations.push(IterationStats {
            active_vertices: active_count,
            gather_messages,
            update_messages,
            network_bytes: sent_bytes.iter().sum::<u64>(),
            machine_compute_ns: compute_ns,
            machine_bytes,
            wall_ns: wall,
        });
        superstep_span.exit(sink, total_wall_ns as u64);
    }

    run_span.exit(sink, total_wall_ns as u64);
    let report = RunReport {
        program: prog.name(),
        machines: k,
        replication_factor: placement.replication_factor(),
        iterations,
        machine_compute_ns: machine_total_ns,
        total_wall_ns,
        fault: fault_state.map(|s| s.summary),
    };
    Ok((run.data, report))
}

fn merge_into<P: VertexProgram>(prog: &P, slot: &mut P::Gather, contrib: P::Gather) {
    *slot = prog.merge(slot.clone(), contrib);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{PageRank, Sssp, Wcc, DAMPING, UNREACHABLE};
    use crate::reference;
    use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};
    use sgp_graph::{GraphBuilder, StreamOrder};
    use sgp_partition::{partition, Algorithm, PartitionerConfig, Partitioning};

    fn any_graph() -> Graph {
        erdos_renyi(ErdosRenyiConfig { vertices: 300, edges: 1800, seed: 21 })
    }

    fn placement_for(g: &Graph, alg: Algorithm, k: usize) -> Placement {
        let cfg = PartitionerConfig::new(k);
        let p = partition(g, alg, &cfg, StreamOrder::Random { seed: 5 });
        Placement::build(g, &p)
    }

    #[test]
    fn pagerank_matches_reference_on_all_cut_models() {
        let g = any_graph();
        let reference = reference::pagerank(&g, 20);
        for alg in [Algorithm::EcrHash, Algorithm::Hdrf, Algorithm::Ginger, Algorithm::Metis] {
            let pl = placement_for(&g, alg, 4);
            let (ranks, _) = run_program(&g, &pl, &PageRank::new(20), &EngineOptions::default());
            for (v, (&a, &b)) in ranks.iter().zip(&reference).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9 * b.abs().max(1.0),
                    "{alg:?}: rank mismatch at {v}: {a} vs {b}"
                );
            }
        }
    }

    /// `any_graph` is one weakly connected component, labelled 0
    /// throughout, so WCC runs on it plus a disjoint directed ring and an
    /// isolated vertex: three components, three labels.
    #[test]
    fn wcc_matches_reference_on_all_cut_models() {
        let mut b = GraphBuilder::new().ensure_vertices(341);
        for e in any_graph().edges() {
            b.push_edge(e.src, e.dst);
        }
        for v in 300..340 {
            b.push_edge(v, if v == 339 { 300 } else { v + 1 });
        }
        let g = b.build();
        let reference = reference::wcc(&g);
        assert_eq!((reference[299], reference[339], reference[340]), (0, 300, 340));
        for alg in
            [Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::Hdrf, Algorithm::HybridRandom]
        {
            let pl = placement_for(&g, alg, 4);
            let (labels, _) = run_program(&g, &pl, &Wcc::new(), &EngineOptions::default());
            assert_eq!(labels, reference, "{alg:?}");
        }
    }

    #[test]
    fn sssp_matches_reference_on_all_cut_models() {
        let g = any_graph();
        let reference = reference::sssp(&g, 0);
        for alg in [Algorithm::Ldg, Algorithm::Dbh, Algorithm::Grid] {
            let pl = placement_for(&g, alg, 4);
            let (dist, _) = run_program(&g, &pl, &Sssp::new(0), &EngineOptions::default());
            assert_eq!(dist, reference, "{alg:?}");
        }
    }

    #[test]
    fn pagerank_runs_exactly_fixed_iterations() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::EcrHash, 4);
        let (_, report) = run_program(&g, &pl, &PageRank::new(7), &EngineOptions::default());
        assert_eq!(report.num_iterations(), 7);
        assert!(report.iterations.iter().all(|i| i.active_vertices == g.num_vertices()));
    }

    #[test]
    fn edge_cut_pagerank_has_no_update_messages() {
        // Appendix B: with out-edges grouped at the master, PageRank's
        // scatter is local — only gather partials cross the network.
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::EcrHash, 4);
        let (_, report) = run_program(&g, &pl, &PageRank::new(3), &EngineOptions::default());
        let updates: u64 = report.iterations.iter().map(|i| i.update_messages).sum();
        assert_eq!(updates, 0, "edge-cut PageRank must not send vertex updates");
        assert!(report.total_messages() > 0);
    }

    #[test]
    fn vertex_cut_pagerank_sends_updates() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::VcrHash, 4);
        let (_, report) = run_program(&g, &pl, &PageRank::new(3), &EngineOptions::default());
        let updates: u64 = report.iterations.iter().map(|i| i.update_messages).sum();
        assert!(updates > 0, "vertex-cut PageRank must synchronize mirrors");
    }

    #[test]
    fn edge_cut_cheaper_than_vertex_cut_per_rf_for_pagerank() {
        // The headline of Fig. 1(a): per unit of replication factor,
        // edge-cut placements move fewer bytes for PageRank.
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 1000, edges: 8000, seed: 9 });
        let ec = placement_for(&g, Algorithm::EcrHash, 8);
        let vc = placement_for(&g, Algorithm::VcrHash, 8);
        let (_, rec) = run_program(&g, &ec, &PageRank::new(5), &EngineOptions::default());
        let (_, rvc) = run_program(&g, &vc, &PageRank::new(5), &EngineOptions::default());
        let slope_ec = rec.total_network_bytes() as f64 / (rec.replication_factor - 1.0).max(1e-9);
        let slope_vc = rvc.total_network_bytes() as f64 / (rvc.replication_factor - 1.0).max(1e-9);
        assert!(
            slope_ec < slope_vc,
            "edge-cut slope {slope_ec} should undercut vertex-cut slope {slope_vc}"
        );
    }

    #[test]
    fn aggregation_reduces_messages() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::EcrHash, 4);
        let with = run_program(&g, &pl, &PageRank::new(3), &EngineOptions::default()).1;
        let without = run_program(
            &g,
            &pl,
            &PageRank::new(3),
            &EngineOptions { sender_side_aggregation: false, ..Default::default() },
        )
        .1;
        assert!(
            with.total_messages() < without.total_messages(),
            "aggregation must reduce message count ({} vs {})",
            with.total_messages(),
            without.total_messages()
        );
    }

    #[test]
    fn single_machine_run_sends_nothing() {
        let g = any_graph();
        let p = Partitioning::from_vertex_owners(&g, 1, vec![0; g.num_vertices()]);
        let pl = Placement::build(&g, &p);
        let (_, report) = run_program(&g, &pl, &PageRank::new(5), &EngineOptions::default());
        assert_eq!(report.total_messages(), 0);
        assert_eq!(report.total_network_bytes(), 0);
        assert!(report.total_wall_ns > 0.0);
    }

    #[test]
    fn wcc_active_set_shrinks() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::EcrHash, 4);
        let (_, report) = run_program(&g, &pl, &Wcc::new(), &EngineOptions::default());
        let first = report.iterations.first().expect("at least one iteration").active_vertices;
        let last = report.iterations.last().expect("at least one iteration").active_vertices;
        assert_eq!(first, g.num_vertices(), "WCC starts all-active");
        assert!(last < first, "WCC frontier must shrink");
    }

    #[test]
    fn sssp_frontier_grows_then_shrinks() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 3)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0, 1, 0]);
        let pl = Placement::build(&g, &p);
        let (dist, report) = run_program(&g, &pl, &Sssp::new(0), &EngineOptions::default());
        assert_eq!(dist, vec![0, 1, 1, 2, 3]);
        let actives: Vec<usize> = report.iterations.iter().map(|i| i.active_vertices).collect();
        assert_eq!(actives[0], 1, "SSSP starts from the source only");
        assert!(actives.iter().max().unwrap() > &1, "frontier must expand");
    }

    #[test]
    fn per_machine_compute_sums_are_positive_everywhere() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::VcrHash, 4);
        let (_, report) = run_program(&g, &pl, &PageRank::new(5), &EngineOptions::default());
        assert_eq!(report.machine_compute_ns.len(), 4);
        assert!(report.machine_compute_ns.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn healthy_fault_plan_changes_nothing_but_tags_the_report() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::Hdrf, 4);
        let opts = EngineOptions::default();
        let (data, healthy) = run_program(&g, &pl, &PageRank::new(5), &opts);
        let plan = FaultPlan::healthy(4, 1);
        let (fdata, faulted) =
            run_program_with(&g, &pl, &PageRank::new(5), &opts, Some(&plan), &mut NullSink)
                .unwrap();
        assert_eq!(data, fdata, "pause-and-recover must not change results");
        assert_eq!(healthy.total_wall_ns, faulted.total_wall_ns);
        assert!(healthy.fault.is_none());
        let summary = faulted.fault.expect("faulted run reports a summary");
        assert_eq!(summary, FaultSummary::default());
    }

    #[test]
    fn straggler_inflates_wall_time_only() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::EcrHash, 4);
        let opts = EngineOptions::default();
        let (data, healthy) = run_program(&g, &pl, &PageRank::new(5), &opts);
        let plan = FaultPlan::healthy(4, 1).with_straggler(0, 0, u64::MAX, 3.0);
        let (fdata, faulted) =
            run_program_with(&g, &pl, &PageRank::new(5), &opts, Some(&plan), &mut NullSink)
                .unwrap();
        assert_eq!(data, fdata);
        assert!(
            faulted.total_wall_ns > healthy.total_wall_ns,
            "a 3x straggler must slow the barrier: {} vs {}",
            faulted.total_wall_ns,
            healthy.total_wall_ns
        );
        let summary = faulted.fault.expect("summary present");
        assert!(summary.straggler_extra_ns > 0.0);
        assert_eq!(summary.crashes, 0);
        let extra = faulted.total_wall_ns - healthy.total_wall_ns;
        assert!((summary.straggler_extra_ns - extra).abs() < 1e-6 * extra.max(1.0));
    }

    #[test]
    fn crash_recovers_replicated_masters_from_mirrors() {
        // Vertex-cut placements replicate heavily, so most of a crashed
        // machine's masters are restored by state transfer; an edge-cut
        // placement leaves unreplicated masters to recompute.
        let g = any_graph();
        let opts = EngineOptions::default();
        let plan = FaultPlan::healthy(4, 1).with_crash(2, 0);
        let pl_vc = placement_for(&g, Algorithm::VcrHash, 4);
        let (data, faulted) =
            run_program_with(&g, &pl_vc, &PageRank::new(5), &opts, Some(&plan), &mut NullSink)
                .unwrap();
        let (hdata, healthy) = run_program(&g, &pl_vc, &PageRank::new(5), &opts);
        assert_eq!(data, hdata, "crash recovery must not change results");
        let s = faulted.fault.expect("summary present");
        assert_eq!(s.crashes, 1);
        assert!(s.recovered_vertices > 0, "vertex-cut masters have mirrors");
        assert!(s.recovery_bytes > 0);
        assert!(faulted.total_wall_ns > healthy.total_wall_ns);
        assert!((faulted.total_wall_ns - healthy.total_wall_ns - s.recovery_ns).abs() < 1e-3);

        // Two disconnected triangles, one per machine: every vertex is
        // internal (no mirrors), so a crash forces pure recomputation.
        let g2 = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .add_edge(5, 3)
            .build();
        let p2 = Partitioning::from_vertex_owners(&g2, 2, vec![0, 0, 0, 1, 1, 1]);
        let pl2 = Placement::build(&g2, &p2);
        let plan2 = FaultPlan::healthy(2, 1).with_crash(1, 0);
        let (_, ec) =
            run_program_with(&g2, &pl2, &PageRank::new(3), &opts, Some(&plan2), &mut NullSink)
                .unwrap();
        let se = ec.fault.expect("summary present");
        assert_eq!(se.recomputed_vertices, 3, "machine 1's masters have no mirrors");
        assert_eq!(se.recovered_vertices, 0);
        assert_eq!(se.recovery_bytes, 0);
        assert!(se.recovery_ns > 0.0, "recomputation must cost time");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::Hdrf, 4);
        let opts = EngineOptions::default();
        let plan = FaultPlan::healthy(4, 77).with_recovering_crash(1, 0, 1_000_000).with_straggler(
            3,
            0,
            u64::MAX,
            2.5,
        );
        let (da, ra) =
            run_program_with(&g, &pl, &PageRank::new(5), &opts, Some(&plan), &mut NullSink)
                .unwrap();
        let (db, rb) =
            run_program_with(&g, &pl, &PageRank::new(5), &opts, Some(&plan), &mut NullSink)
                .unwrap();
        assert_eq!(da, db);
        assert_eq!(ra.total_wall_ns, rb.total_wall_ns);
        assert_eq!(ra.fault, rb.fault);
    }

    #[test]
    fn traced_run_matches_untraced_and_counters_match_report() {
        use sgp_trace::CollectingSink;
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::Hdrf, 4);
        let opts = EngineOptions::default();
        let (data, report) = run_program(&g, &pl, &PageRank::new(5), &opts);
        let mut sink = CollectingSink::new();
        let (tdata, treport) =
            run_program_with(&g, &pl, &PageRank::new(5), &opts, None, &mut sink).unwrap();
        assert_eq!(data, tdata, "tracing must not perturb results");
        assert_eq!(report.total_wall_ns, treport.total_wall_ns);
        sink.check_nesting().expect("well-formed span nesting");
        assert_eq!(
            sink.counter_total(keys::ENGINE_GATHER_MESSAGES.name()),
            report.iterations.iter().map(|i| i.gather_messages).sum::<u64>()
        );
        assert_eq!(
            sink.counter_total(keys::ENGINE_UPDATE_MESSAGES.name()),
            report.iterations.iter().map(|i| i.update_messages).sum::<u64>()
        );
        assert_eq!(
            sink.counter_total(keys::ENGINE_NETWORK_BYTES.name()),
            report.iterations.iter().map(|i| i.network_bytes).sum::<u64>()
        );
        assert_eq!(
            sink.counter_total(keys::ENGINE_ACTIVE_VERTICES.name()),
            report.iterations.iter().map(|i| i.active_vertices as u64).sum::<u64>()
        );
    }

    #[test]
    fn traced_fault_run_records_crash_events() {
        use sgp_trace::CollectingSink;
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::VcrHash, 4);
        let opts = EngineOptions::default();
        let plan = FaultPlan::healthy(4, 1).with_crash(2, 0);
        let mut sink = CollectingSink::new();
        let (_, report) =
            run_program_with(&g, &pl, &PageRank::new(5), &opts, Some(&plan), &mut sink).unwrap();
        let summary = report.fault.expect("faulted run reports a summary");
        assert_eq!(sink.counter_total(keys::ENGINE_FAULT_CRASHES.name()), summary.crashes as u64);
        assert_eq!(
            sink.counter_total(keys::ENGINE_FAULT_RECOVERY_BYTES.name()),
            summary.recovery_bytes
        );
        sink.check_nesting().expect("well-formed span nesting");
    }

    #[test]
    fn unfit_fault_plans_are_typed_errors() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::EcrHash, 4);
        let run = |plan: &FaultPlan| {
            let opts = EngineOptions::default();
            run_program_with(&g, &pl, &PageRank::new(2), &opts, Some(plan), &mut NullSink)
        };
        assert_eq!(
            run(&FaultPlan::healthy(3, 1)).unwrap_err(),
            EngineError::MachineCountMismatch { plan: 3, placement: 4 }
        );
        let lossy = FaultPlan { message_loss: 1.5, ..FaultPlan::healthy(4, 1) };
        assert_eq!(
            run(&lossy).unwrap_err(),
            EngineError::InvalidPlan(PlanError::BadLossProbability)
        );
        assert!(run(&FaultPlan::healthy(4, 1)).is_ok());
    }

    #[test]
    #[should_panic(expected = "placement does not match graph")]
    fn a_placement_built_for_another_graph_is_refused() {
        // Same vertex count, other edges: only the edge count tells the
        // two graphs apart.
        let pl = placement_for(&any_graph(), Algorithm::EcrHash, 4);
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 300, edges: 1000, seed: 21 });
        run_program(&g, &pl, &PageRank::new(20), &EngineOptions::default());
    }

    // ---- dense ≡ sparse ≡ auto --------------------------------------------

    use crate::placement::tests::{arb_partitioned_graph, ReferencePlacement};
    use crate::program::Direction;
    use sgp_graph::sampling::check_cases;
    use sgp_trace::CollectingSink;

    const POLICIES: [BodyPolicy; 3] = [BodyPolicy::Dense, BodyPolicy::Sparse, BodyPolicy::Auto];

    fn assert_same_report(a: &RunReport, b: &RunReport, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.program, b.program, "{what}");
        assert_eq!(a.machines, b.machines, "{what}");
        assert_eq!(a.replication_factor.to_bits(), b.replication_factor.to_bits(), "{what}");
        assert_eq!(a.iterations.len(), b.iterations.len(), "{what}: superstep count");
        for (i, (x, y)) in a.iterations.iter().zip(&b.iterations).enumerate() {
            assert_eq!(x.active_vertices, y.active_vertices, "{what}: superstep {i}");
            assert_eq!(x.gather_messages, y.gather_messages, "{what}: superstep {i}");
            assert_eq!(x.update_messages, y.update_messages, "{what}: superstep {i}");
            assert_eq!(x.network_bytes, y.network_bytes, "{what}: superstep {i}");
            assert_eq!(x.machine_bytes, y.machine_bytes, "{what}: superstep {i}");
            assert_eq!(
                bits(&x.machine_compute_ns),
                bits(&y.machine_compute_ns),
                "{what}: superstep {i} compute"
            );
            assert_eq!(x.wall_ns.to_bits(), y.wall_ns.to_bits(), "{what}: superstep {i} wall");
        }
        assert_eq!(bits(&a.machine_compute_ns), bits(&b.machine_compute_ns), "{what}");
        assert_eq!(a.total_wall_ns.to_bits(), b.total_wall_ns.to_bits(), "{what}");
        match (&a.fault, &b.fault) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x, y, "{what}: fault summary");
                assert_eq!(x.recovery_ns.to_bits(), y.recovery_ns.to_bits(), "{what}");
                assert_eq!(
                    x.straggler_extra_ns.to_bits(),
                    y.straggler_extra_ns.to_bits(),
                    "{what}"
                );
            }
            _ => panic!("{what}: one run has a fault summary, the other none"),
        }
    }

    /// Runs `prog` once per policy — healthy or under `plan` — and checks
    /// vertex data, the whole report and the trace bytes against the
    /// forced-dense run. Returns that run's data.
    fn assert_bodies_agree<P: VertexProgram>(
        g: &Graph,
        pl: &Placement,
        prog: &P,
        opts: &EngineOptions,
        plan: Option<&FaultPlan>,
        what: &str,
    ) -> Vec<P::VertexData> {
        let mut runs = POLICIES.map(|policy| {
            let mut sink = CollectingSink::new();
            let (data, report) =
                run_program_impl(g, pl, prog, opts, plan, &mut sink, policy).unwrap();
            sink.check_nesting().expect("well-formed span nesting");
            (policy, data, report, sink.to_json())
        });
        let [(_, dense_data, dense_report, dense_trace), rest @ ..] = &mut runs;
        for (policy, data, report, trace) in rest {
            let what = format!("{what}: {policy:?} vs Dense");
            assert_eq!(data, dense_data, "{what}: vertex data");
            assert_same_report(report, dense_report, &what);
            assert_eq!(trace, dense_trace, "{what}: trace bytes");
        }
        std::mem::take(dense_data)
    }

    fn both_aggregation_modes() -> [EngineOptions; 2] {
        [true, false].map(|on| EngineOptions { sender_side_aggregation: on, ..Default::default() })
    }

    /// Activation-driven, order-sensitive: an f64 sum over both edge
    /// directions with weights of very different magnitude, started from
    /// the given partial frontier. A sparse gather that merged a vertex's
    /// contributions in any order but the scan's would round differently.
    /// As `AllActiveDiffusion` it is all-active after that first partial
    /// frontier, the one case where an all-active superstep is not full.
    struct Diffusion {
        seeds: Vec<VertexId>,
        all_active: bool,
    }

    impl Diffusion {
        fn from_every_seventh_vertex(g: &Graph) -> Self {
            Diffusion { seeds: g.vertices().filter(|v| v % 7 == 3).collect(), all_active: false }
        }

        fn all_active_from_every_seventh_vertex(g: &Graph) -> Self {
            Diffusion { all_active: true, ..Diffusion::from_every_seventh_vertex(g) }
        }
    }

    impl VertexProgram for Diffusion {
        type VertexData = f64;
        type Gather = f64;
        const DATA_BYTES: usize = 8;
        const GATHER_BYTES: usize = 8;

        fn name(&self) -> &'static str {
            if self.all_active {
                "AllActiveDiffusion"
            } else {
                "Diffusion"
            }
        }
        fn gather_direction(&self) -> Direction {
            Direction::Both
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Both
        }
        fn init(&self, v: VertexId, _g: &Graph) -> f64 {
            1.0 + f64::from(v) * 0.37
        }
        fn initial_frontier(&self, _g: &Graph) -> Option<Vec<VertexId>> {
            Some(self.seeds.clone())
        }
        fn gather_identity(&self) -> f64 {
            0.0
        }
        fn publish(&self, _g: &Graph, _v: VertexId, value: &f64) -> f64 {
            *value
        }
        fn gather_edge(&self, _g: &Graph, v: VertexId, nbr: VertexId, value: &f64) -> f64 {
            // Weights span ten orders of magnitude, so the sum depends
            // on the order of its terms.
            value * 10f64.powi(((v * 31 + nbr * 17) % 11) as i32 - 5)
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, g: &Graph, v: VertexId, old: &f64, acc: f64, _iteration: usize) -> f64 {
            0.5 * old + 0.5 * acc / (g.degree(v) as f64 + 1.0)
        }
        fn max_iterations(&self) -> usize {
            9
        }
        fn all_active(&self) -> bool {
            self.all_active
        }
    }

    #[test]
    fn dense_and_sparse_bodies_agree_on_every_cut_model() {
        let g = any_graph();
        let source = g.vertices().max_by_key(|&v| g.out_degree(v)).expect("non-empty graph");
        let diffusion = Diffusion::from_every_seventh_vertex(&g);
        let all_active = Diffusion::all_active_from_every_seventh_vertex(&g);
        for alg in [
            Algorithm::EcrHash,
            Algorithm::Ldg,
            Algorithm::Dbh,
            Algorithm::Hdrf,
            Algorithm::HybridRandom,
            Algorithm::Grid,
        ] {
            // k = 64, 65 and 130 take the machine bitsets from one word
            // per vertex to two and three.
            for k in [4, 64, 65, 130] {
                let pl = placement_for(&g, alg, k);
                for opts in both_aggregation_modes() {
                    let what =
                        format!("{alg:?}, k {k}, aggregation {}", opts.sender_side_aggregation);
                    assert_bodies_agree(&g, &pl, &PageRank::new(4), &opts, None, &what);
                    let labels = assert_bodies_agree(&g, &pl, &Wcc::new(), &opts, None, &what);
                    assert_eq!(labels, reference::wcc(&g), "{what}");
                    let dist = assert_bodies_agree(&g, &pl, &Sssp::new(source), &opts, None, &what);
                    assert_eq!(dist, reference::sssp(&g, source), "{what}");
                    assert_bodies_agree(&g, &pl, &diffusion, &opts, None, &what);
                    assert_bodies_agree(&g, &pl, &all_active, &opts, None, &what);
                }
            }
        }
    }

    #[test]
    fn auto_policy_takes_both_bodies_on_a_long_thin_graph() {
        // A 600-vertex path: SSSP's frontier is one vertex per superstep
        // (sparse), WCC starts from every vertex (dense) and thins out.
        let mut b = GraphBuilder::new();
        for v in 0..599 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let pl = placement_for(&g, Algorithm::Dbh, 4);
        let opts = EngineOptions::default();
        let (wcc, sssp) = (Wcc::new(), Sssp::new(0));
        let mut run = Run::new(&g, &pl, &wcc, &opts).unwrap();
        let limit = g.num_edges() / SPARSE_EDGE_DIVISOR;
        assert!(!run.frontier_within(limit), "an all-vertex frontier takes the scan");
        assert!(!run.listed && run.frontier.is_empty());
        let mut run = Run::new(&g, &pl, &sssp, &opts).unwrap();
        assert!(run.frontier_within(limit), "a one-vertex frontier takes the walk");
        assert_eq!(run.frontier, vec![0]);
        for prog_opts in both_aggregation_modes() {
            assert_bodies_agree(&g, &pl, &sssp, &prog_opts, None, "path SSSP");
            assert_bodies_agree(&g, &pl, &wcc, &prog_opts, None, "path WCC");
        }
    }

    /// The self-loop (2, 2) contributes twice to vertex 2 under a BOTH
    /// gather — in before out — and (0, 1)/(1, 0), (2, 3)/(3, 2) are
    /// reciprocal pairs.
    fn loops_and_reciprocal_edges() -> Graph {
        GraphBuilder::new()
            .keep_self_loops(true)
            .add_edge(0, 1)
            .add_edge(1, 0)
            .add_edge(1, 2)
            .add_edge(2, 2)
            .add_edge(2, 3)
            .add_edge(3, 2)
            .add_edge(3, 4)
            .add_edge(4, 0)
            .add_edge(5, 5)
            .build()
    }

    #[test]
    fn bodies_agree_with_a_self_loop_and_reciprocal_edges() {
        // The vertex-cut puts the two directions of each reciprocal pair
        // on different machines.
        let g = loops_and_reciprocal_edges();
        assert_eq!(g.num_edges(), 9);
        let diffusion = Diffusion::from_every_seventh_vertex(&g);
        let all_active = Diffusion::all_active_from_every_seventh_vertex(&g);
        let by_edge = Partitioning::from_edge_parts(&g, 3, vec![0, 1, 2, 1, 0, 2, 1, 0, 2]);
        let by_vertex = Partitioning::from_vertex_owners(&g, 3, vec![0, 1, 2, 0, 1, 2]);
        for (p, what) in [(by_edge, "vertex-cut"), (by_vertex, "edge-cut")] {
            let pl = Placement::build(&g, &p);
            for opts in both_aggregation_modes() {
                assert_bodies_agree(&g, &pl, &PageRank::new(3), &opts, None, what);
                let labels = assert_bodies_agree(&g, &pl, &Wcc::new(), &opts, None, what);
                assert_eq!(labels, reference::wcc(&g), "{what}");
                let dist = assert_bodies_agree(&g, &pl, &Sssp::new(1), &opts, None, what);
                assert_eq!(dist, reference::sssp(&g, 1), "{what}");
                assert_bodies_agree(&g, &pl, &diffusion, &opts, None, what);
                assert_bodies_agree(&g, &pl, &all_active, &opts, None, what);
            }
        }
    }

    #[test]
    fn parallel_edges_are_charged_where_each_is_stored() {
        // A path with every edge doubled, the copies on different
        // machines. The walk used to look both copies of an in-edge up by
        // endpoints and charge the first one's machine twice.
        let mut b = GraphBuilder::new().keep_duplicates(true);
        for v in 0..1200 {
            b.push_edge(v, v + 1);
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 2400);
        let p = Partitioning::from_edge_parts(&g, 2, (0..2400).map(|i| i % 2).collect());
        let pl = Placement::build(&g, &p);
        let opts = EngineOptions::default();
        let (dist, report) = run_program(&g, &pl, &Sssp::new(0), &opts);
        assert_eq!(dist, reference::sssp(&g, 0));
        // 2400 edge ops on each machine; 611 and 590 applies.
        assert_eq!(report.machine_compute_ns, vec![96_660.0, 95_400.0]);
        assert_bodies_agree(&g, &pl, &Sssp::new(0), &opts, None, "doubled path");
        let rp = ReferencePlacement::build(&g, &p);
        let naive = naive_run(&g, &rp, &Sssp::new(0), &opts, None);
        assert_same_report(&report, &naive.1, "doubled path vs naive");
        let all_active = Diffusion::all_active_from_every_seventh_vertex(&g);
        for opts in both_aggregation_modes() {
            assert_bodies_agree(&g, &pl, &all_active, &opts, None, "doubled path");
            let (data, report) = run_program(&g, &pl, &all_active, &opts);
            let (naive_data, naive_report) = naive_run(&g, &rp, &all_active, &opts, None);
            assert_eq!(data, naive_data, "doubled path vs naive");
            assert_same_report(&report, &naive_report, "doubled path vs naive");
        }
    }

    #[test]
    fn an_out_of_range_initial_frontier_is_a_typed_error() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        let pl = Placement::build(&g, &Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0]));
        let opts = EngineOptions::default();
        let run = |prog: &Diffusion| run_program_with(&g, &pl, prog, &opts, None, &mut NullSink);
        let err = run_program_with(&g, &pl, &Sssp::new(7), &opts, None, &mut NullSink).unwrap_err();
        assert_eq!(err, EngineError::FrontierOutOfRange { vertex: 7, vertices: 3 });
        assert_eq!(err.to_string(), "initial frontier names vertex 7 but the graph has 3 vertices");
        // The largest vertex named is reported; the first vertex past
        // the end is refused, the last one in range is not.
        let seeds = |seeds: Vec<VertexId>| Diffusion { seeds, all_active: false };
        assert_eq!(
            run(&seeds(vec![9, 1, 3])).unwrap_err(),
            EngineError::FrontierOutOfRange { vertex: 9, vertices: 3 }
        );
        assert_eq!(
            run(&seeds(vec![3])).unwrap_err(),
            EngineError::FrontierOutOfRange { vertex: 3, vertices: 3 }
        );
        assert!(run(&seeds(vec![2, 0])).is_ok());
        let plan = FaultPlan::healthy(2, 1);
        let faulted = run_program_with(&g, &pl, &Sssp::new(7), &opts, Some(&plan), &mut NullSink);
        assert_eq!(faulted.unwrap_err(), err, "a fitting plan does not hide the frontier");
    }

    #[test]
    #[should_panic(expected = "initial frontier names vertex 7 but the graph has 3 vertices")]
    fn run_program_panics_on_an_out_of_range_initial_frontier() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        let pl = Placement::build(&g, &Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0]));
        run_program(&g, &pl, &Sssp::new(7), &EngineOptions::default());
    }

    /// The two laws on [`VertexProgram`] that let the engine gather into
    /// slots seeded at the identity and from published values: merging a
    /// contribution into the identity gives it back bit for bit, and
    /// `publish` gives the same bits whenever, and in whatever order, it
    /// is asked. Sampled data plus the boundaries: 0, the `MAX`
    /// sentinels, out-degree 0 and 1, and the largest, smallest normal
    /// and smallest subnormal positive `f64`s, and infinity.
    #[test]
    fn programs_obey_the_identity_and_publish_laws() {
        fn check<P: VertexProgram>(
            prog: &P,
            g: &Graph,
            values: &[P::VertexData],
            bits: fn(&P::Gather) -> u64,
        ) {
            let name = prog.name();
            let published: Vec<Vec<u64>> = values
                .iter()
                .map(|d| g.vertices().map(|v| bits(&prog.publish(g, v, d))).collect())
                .collect();
            for (d, row) in values.iter().zip(&published).rev() {
                for v in (0..g.num_vertices() as VertexId).rev() {
                    let again = bits(&prog.publish(g, v, d));
                    assert_eq!(again, row[v as usize], "{name}: publish({v}, {d:?}) is not pure");
                }
            }
            for e in g.edges() {
                for (v, nbr) in [(e.dst, e.src), (e.src, e.dst)] {
                    for d in values {
                        let x = prog.gather_edge(g, v, nbr, &prog.publish(g, nbr, d));
                        let merged = prog.merge(prog.gather_identity(), x.clone());
                        assert_eq!(
                            bits(&merged),
                            bits(&x),
                            "{name}: merge(identity, x) != x for {d:?} gathered by {v} from {nbr}"
                        );
                    }
                }
            }
        }

        let mut rng = sgp_graph::sampling::seeded_rng(40);
        let mut floats = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e-300,
            1.0 - DAMPING,
            1.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        // Any positive bit pattern but NaN: every exponent, subnormals too.
        floats.extend(
            std::iter::repeat_with(|| f64::from_bits(rng.next_u64() >> 1))
                .filter(|x| !x.is_nan())
                .take(24),
        );
        let mut labels = vec![0, 1, u32::MAX - 1, u32::MAX];
        labels.extend((0..24).map(|_| rng.next_u64() as u32));
        let mut dists = vec![0, 1, UNREACHABLE - 1, UNREACHABLE];
        dists.extend((0..24).map(|_| rng.next_u64() >> rng.below(64)));

        // Vertex 4 of the loop graph has out-degree 1; the random graph
        // has hubs and vertices without out-edges.
        for g in [loops_and_reciprocal_edges(), any_graph()] {
            assert!(g.vertices().any(|v| g.out_degree(v) == 1));
            check(&PageRank::new(1), &g, &floats, |x| x.to_bits());
            check(&Wcc::new(), &g, &labels, |&x| u64::from(x));
            check(&Sssp::new(0), &g, &dists, |&x| x);
            check(&Diffusion::from_every_seventh_vertex(&g), &g, &floats, |x| x.to_bits());
        }
    }

    #[test]
    fn duplicate_initial_frontier_entries_count_once() {
        let g = any_graph();
        let pl = placement_for(&g, Algorithm::Hdrf, 4);
        let opts = EngineOptions::default();
        let prog = Diffusion { seeds: vec![3, 0, 3, 0], all_active: false };
        assert_bodies_agree(&g, &pl, &prog, &opts, None, "duplicated seeds");
        let (_, report) = run_program(&g, &pl, &prog, &opts);
        assert_eq!(report.iterations[0].active_vertices, 2);
    }

    // ---- run_program ≡ the naive engine --------------------------------------

    /// The engine as one dense loop over a [`ReferencePlacement`], charging
    /// compute by one `+=` per operation in phase order (gather, apply,
    /// scatter). Healthy or under `plan`; no trace. It makes neither of
    /// the engine's gather shortcuts: an accumulator is `None` until its
    /// first contribution, and every gather edge publishes the
    /// neighbour's current data afresh.
    fn naive_run<P: VertexProgram>(
        g: &Graph,
        pl: &ReferencePlacement,
        prog: &P,
        opts: &EngineOptions,
        plan: Option<&FaultPlan>,
    ) -> (Vec<P::VertexData>, RunReport) {
        let (n, k, cost) = (g.num_vertices(), pl.k, opts.cost);
        let (gather, scatter) = (prog.gather_direction(), prog.scatter_direction());
        let mut data: Vec<P::VertexData> = g.vertices().map(|v| prog.init(v, g)).collect();
        let frontier = prog.initial_frontier(g);
        let mut active = vec![frontier.is_none(); n];
        for v in frontier.unwrap_or_default() {
            active[v as usize] = true;
        }
        let mut iterations = Vec::new();
        let mut machine_total_ns = vec![0.0f64; k];
        let mut total_wall_ns = 0.0f64;
        let mut fired = vec![false; plan.map_or(0, |p| p.events.len())];
        let mut fault = plan.map(|_| FaultSummary::default());

        for iteration in 0..prog.max_iterations() {
            let active_vertices = active.iter().filter(|&&a| a).count();
            if active_vertices == 0 {
                break;
            }
            let mut compute_ns = vec![0.0f64; k];
            let mut machine_bytes = vec![0u64; k];
            let (mut gather_messages, mut update_messages, mut network_bytes) = (0u64, 0u64, 0u64);
            let mut send = |from: usize, to: usize, payload: usize, counter: &mut u64| {
                *counter += 1;
                let len = encoded_len(payload) as u64;
                machine_bytes[from] += len;
                machine_bytes[to] += len;
                network_bytes += len;
            };

            let mut acc: Vec<Option<P::Gather>> = vec![None; n];
            for (machine, edges) in pl.local_edges.iter().enumerate() {
                for e in edges {
                    // (vertex gathering, neighbour read), in before out.
                    let sides =
                        [(gather.uses_in(), e.dst, e.src), (gather.uses_out(), e.src, e.dst)];
                    for (used, v, nbr) in sides {
                        if !used || !active[v as usize] {
                            continue;
                        }
                        let published = prog.publish(g, nbr, &data[nbr as usize]);
                        let contrib = prog.gather_edge(g, v, nbr, &published);
                        acc[v as usize] = Some(match acc[v as usize].take() {
                            Some(sum) => prog.merge(sum, contrib),
                            None => contrib,
                        });
                        compute_ns[machine] += cost.ns_per_edge_op;
                        let master = pl.masters[v as usize] as usize;
                        if !opts.sender_side_aggregation && master != machine {
                            send(machine, master, P::GATHER_BYTES, &mut gather_messages);
                        }
                    }
                }
            }
            for v in g.vertices().filter(|&v| opts.sender_side_aggregation && active[v as usize]) {
                for machine in pl.gather_partial_parts(v, gather.uses_in(), gather.uses_out()) {
                    let master = pl.masters[v as usize] as usize;
                    send(machine as usize, master, P::GATHER_BYTES, &mut gather_messages);
                }
            }

            let mut changed = vec![false; n];
            for v in (0..n).filter(|&v| active[v]) {
                compute_ns[pl.masters[v] as usize] += cost.ns_per_apply;
                let total = acc[v].take().unwrap_or_else(|| prog.gather_identity());
                let new = prog.apply(g, v as VertexId, &data[v], total, iteration);
                let moved = new != data[v];
                changed[v] = moved || iteration == 0;
                if moved {
                    data[v] = new;
                }
            }

            let mut next_active = vec![prog.all_active(); n];
            for v in g.vertices().filter(|&v| changed[v as usize]) {
                for machine in pl.update_target_parts(v, gather.uses_in(), gather.uses_out()) {
                    let master = pl.masters[v as usize] as usize;
                    send(master, machine as usize, P::DATA_BYTES, &mut update_messages);
                }
                if !prog.activates_on_change() {
                    continue;
                }
                if scatter.uses_out() {
                    for (idx, &w) in g.out_edge_range(v).zip(g.out_neighbors(v)) {
                        next_active[w as usize] = true;
                        compute_ns[pl.edge_parts[idx] as usize] += cost.ns_per_edge_op;
                    }
                }
                if scatter.uses_in() {
                    for (&idx, &w) in pl.in_edge_ids[v as usize].iter().zip(g.in_neighbors(v)) {
                        next_active[w as usize] = true;
                        compute_ns[pl.edge_parts[idx] as usize] += cost.ns_per_edge_op;
                    }
                }
            }
            active = next_active;

            // Barrier; under a plan, stragglers stretch it and a crash whose
            // time has come is recovered before the next superstep.
            let net_ns = |m: usize| machine_bytes[m] as f64 / cost.bytes_per_second * 1e9;
            let barrier = |slowdown: &dyn Fn(usize) -> f64| {
                (0..k).fold(0.0f64, |wall, m| wall.max(compute_ns[m] * slowdown(m) + net_ns(m)))
                    + cost.barrier_ns
            };
            let mut wall = barrier(&|_| 1.0);
            if let (Some(plan), Some(summary)) = (plan, fault.as_mut()) {
                let t = total_wall_ns as u64;
                let healthy = wall;
                wall = barrier(&|m| plan.slowdown(m as u32, t));
                summary.straggler_extra_ns += (wall - healthy).max(0.0);
                for (i, event) in plan.events.iter().enumerate() {
                    let FaultEvent::Crash { machine, at_ns, .. } = *event else { continue };
                    if fired[i] || t < at_ns {
                        continue;
                    }
                    fired[i] = true;
                    summary.crashes += 1;
                    let (mut bytes, mut recompute_ns) = (0u64, 0.0f64);
                    for v in g.vertices().filter(|&v| pl.masters[v as usize] == machine) {
                        if pl.replicas[v as usize].len() >= 2 {
                            summary.recovered_vertices += 1;
                            bytes += encoded_len(P::DATA_BYTES) as u64;
                        } else {
                            summary.recomputed_vertices += 1;
                            recompute_ns +=
                                cost.ns_per_apply + cost.ns_per_edge_op * g.degree(v) as f64;
                        }
                    }
                    let recovery_ns = bytes as f64 / cost.bytes_per_second * 1e9 + recompute_ns;
                    summary.recovery_bytes += bytes;
                    summary.recovery_ns += recovery_ns;
                    wall += recovery_ns;
                }
            }
            total_wall_ns += wall;
            for m in 0..k {
                machine_total_ns[m] += compute_ns[m];
            }
            iterations.push(IterationStats {
                active_vertices,
                gather_messages,
                update_messages,
                network_bytes,
                machine_compute_ns: compute_ns,
                machine_bytes,
                wall_ns: wall,
            });
        }

        let total_replicas: usize = pl.replicas.iter().map(|set| set.len()).sum();
        let report = RunReport {
            program: prog.name(),
            machines: k,
            replication_factor: if n == 0 { 0.0 } else { total_replicas as f64 / n as f64 },
            iterations,
            machine_compute_ns: machine_total_ns,
            total_wall_ns,
            fault,
        };
        (data, report)
    }

    /// Runs PageRank, WCC, SSSP and `AllActiveDiffusion` healthy, and WCC
    /// and PageRank under a crash and a straggler (where there is a second machine), through
    /// `run_program*` and through the naive engine over the reference
    /// placement, on every graph × k × algorithm × aggregation mode;
    /// data and whole reports must be equal. Returns the runs compared.
    fn compare_with_naive_engine(
        graphs: &[(&str, Graph)],
        ks: &[usize],
        algorithms: &[Algorithm],
    ) -> usize {
        fn compare<P: VertexProgram>(
            g: &Graph,
            layouts: (&Placement, &ReferencePlacement),
            prog: &P,
            opts: &EngineOptions,
            plan: Option<&FaultPlan>,
            what: &str,
        ) {
            let (pl, rp) = layouts;
            let (data, report) = run_program_with(g, pl, prog, opts, plan, &mut NullSink).unwrap();
            let (naive_data, naive_report) = naive_run(g, rp, prog, opts, plan);
            assert_eq!(data, naive_data, "{what}: vertex data");
            assert_same_report(&report, &naive_report, what);
        }

        let mut runs = 0;
        for (name, g) in graphs {
            let source = g.vertices().max_by_key(|&v| g.out_degree(v)).expect("non-empty graph");
            let all_active = Diffusion::all_active_from_every_seventh_vertex(g);
            for (&k, &alg) in ks.iter().flat_map(|k| algorithms.iter().map(move |alg| (k, alg))) {
                let p =
                    partition(g, alg, &PartitionerConfig::new(k), StreamOrder::Random { seed: 5 });
                let (pl, rp) = (Placement::build(g, &p), ReferencePlacement::build(g, &p));
                let plan = FaultPlan::healthy(k, 9)
                    .with_crash(k as u32 - 1, 50_000)
                    .with_straggler(0, 0, u64::MAX, 2.5);
                for opts in both_aggregation_modes() {
                    let what = format!(
                        "{name}, {alg:?}, k {k}, aggregation {}",
                        opts.sender_side_aggregation
                    );
                    compare(g, (&pl, &rp), &PageRank::new(4), &opts, None, &what);
                    compare(g, (&pl, &rp), &Wcc::new(), &opts, None, &what);
                    compare(g, (&pl, &rp), &Sssp::new(source), &opts, None, &what);
                    compare(g, (&pl, &rp), &all_active, &opts, None, &what);
                    runs += 4;
                    if k > 1 {
                        compare(g, (&pl, &rp), &Wcc::new(), &opts, Some(&plan), &what);
                        compare(g, (&pl, &rp), &PageRank::new(4), &opts, Some(&plan), &what);
                        runs += 2;
                    }
                }
            }
        }
        runs
    }

    #[test]
    fn run_program_matches_the_naive_engine() {
        let graphs = [("ER 300", any_graph()), ("loops", loops_and_reciprocal_edges())];
        let algorithms = [Algorithm::Ldg, Algorithm::Dbh, Algorithm::HybridRandom];
        assert_eq!(compare_with_naive_engine(&graphs, &[1, 4, 65], &algorithms), 192);
    }

    /// The full grid; minutes unoptimized, so CI runs it in release.
    #[test]
    #[ignore = "slow unoptimized: cargo test --release -p sgp-engine --lib -- --ignored"]
    fn run_program_matches_the_naive_engine_on_the_full_grid() {
        use sgp_graph::generators::{rmat, road_grid, RmatConfig, RoadConfig};
        let graphs = [
            ("ER 300", any_graph()),
            ("ER 1000", erdos_renyi(ErdosRenyiConfig { vertices: 1000, edges: 8000, seed: 9 })),
            ("R-MAT 2^10", rmat(RmatConfig { scale: 10, edge_factor: 8, ..RmatConfig::default() })),
            (
                "road 24x24",
                road_grid(RoadConfig { width: 24, height: 24, ..RoadConfig::default() }),
            ),
            ("loops", loops_and_reciprocal_edges()),
        ];
        let streaming: Vec<Algorithm> = Algorithm::offline_suite()
            .iter()
            .copied()
            .filter(|&alg| alg != Algorithm::Metis)
            .collect();
        assert_eq!(streaming.len(), 9);
        let runs = compare_with_naive_engine(&graphs, &[1, 2, 4, 16, 64, 65, 130], &streaming);
        assert_eq!(runs, 3600);
    }

    /// Forced-sparse, forced-dense and auto runs are the same run —
    /// data, report, trace bytes — and equal the single-machine
    /// references, on random graphs, partitionings and sources.
    #[test]
    fn bodies_agree_on_random_partitionings() {
        check_cases(48, |rng| {
            let (g, p) = arb_partitioned_graph(rng);
            let source = rng.index(g.num_vertices()) as u32;
            let aggregate = rng.index(2) == 0;
            let pl = Placement::build(&g, &p);
            let opts = EngineOptions { sender_side_aggregation: aggregate, ..Default::default() };
            let dist = assert_bodies_agree(&g, &pl, &Sssp::new(source), &opts, None, "SSSP");
            assert_eq!(dist, reference::sssp(&g, source));
            let labels = assert_bodies_agree(&g, &pl, &Wcc::new(), &opts, None, "WCC");
            assert_eq!(labels, reference::wcc(&g));
            let diffusion = Diffusion::from_every_seventh_vertex(&g);
            assert_bodies_agree(&g, &pl, &diffusion, &opts, None, "Diffusion");
            let all_active = Diffusion::all_active_from_every_seventh_vertex(&g);
            assert_bodies_agree(&g, &pl, &all_active, &opts, None, "AllActiveDiffusion");
        });
    }

    /// A crash and a straggler are charged identically whichever
    /// body ran the supersteps they fall into.
    #[test]
    fn bodies_agree_under_a_crash_and_a_straggler() {
        check_cases(48, |rng| {
            let (g, p) = arb_partitioned_graph(rng);
            let source = rng.index(g.num_vertices()) as u32;
            let crash_at = rng.below(200_000);
            let slowdown = 1.5 + 2.5 * rng.unit();
            let pl = Placement::build(&g, &p);
            let k = pl.k as u32;
            let plan = FaultPlan::healthy(pl.k, 9).with_crash(k - 1, crash_at).with_straggler(
                0,
                0,
                u64::MAX,
                slowdown,
            );
            let opts = EngineOptions::default();
            assert_bodies_agree(&g, &pl, &Sssp::new(source), &opts, Some(&plan), "faulted SSSP");
            assert_bodies_agree(&g, &pl, &Wcc::new(), &opts, Some(&plan), "faulted WCC");
        });
    }
}
