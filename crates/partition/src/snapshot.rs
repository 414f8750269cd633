//! Schema-versioned snapshot/restore for the incremental streaming core
//! (DESIGN.md §11).
//!
//! A snapshot captures the run-varying state of a
//! [`StreamingPartitioner`] at a chunk boundary — assignments, loads,
//! and the algorithm-specific tables the greedy heuristics consult — in
//! a canonical one-record-per-line text format. The contract mirrors
//! the chunking contract of [`crate::streaming`]: for every Table 2
//! algorithm, restoring a snapshot and continuing the stream is
//! bit-identical to the uninterrupted run, because placement decisions
//! depend only on the element sequence and the state folded over it
//! (all of which the snapshot carries; config-pure inputs like degree
//! oracles are rebuilt from the graph at restore time).
//!
//! Canonical means byte-deterministic: the same machine state always
//! serializes to the same bytes — records are emitted in fixed order
//! (index order within each record class), sparse tables skip their
//! default entries, and nothing wallclock- or address-dependent is ever
//! written. `snapshot(restore(s)) == s` therefore holds for every valid
//! snapshot `s`.
//!
//! The format is schema-versioned like the trace stream and the fault
//! plan: [`SNAPSHOT_SCHEMA_VERSION`] is stamped into the header, pinned
//! in `tests/goldens/SCHEMA_VERSIONS`, and a snapshot from any other
//! version is rejected with a typed [`SnapshotError`] instead of being
//! misread.

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::edge_cut::UNASSIGNED;
use crate::registry::Algorithm;
use crate::streaming::{Machine, StreamInput, StreamingPartitioner};
use sgp_graph::stream::VertexRecord;
use sgp_graph::{Edge, Graph};

/// Version stamped into the snapshot header and pinned in
/// `tests/goldens/SCHEMA_VERSIONS`. Bump on any change to the record
/// vocabulary or semantics; old snapshots are rejected with
/// [`SnapshotError::SchemaMismatch`].
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Why a snapshot failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written under a different schema version.
    SchemaMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The snapshot was taken by a different algorithm than the one
    /// requested for restore.
    AlgorithmMismatch {
        /// Table 2 abbreviation found in the header.
        found: String,
    },
    /// The snapshot's `k`/`n`/`m` header does not match the restore
    /// target (different graph or partition count).
    GraphMismatch,
    /// A line could not be parsed, referenced an out-of-range id, or
    /// carried an unknown record key.
    Malformed {
        /// 1-indexed offending line.
        line: usize,
    },
    /// The recorded per-partition loads disagree with the restored
    /// tables — the snapshot is internally inconsistent (truncated or
    /// corrupted).
    LoadMismatch,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::SchemaMismatch { found } => write!(
                f,
                "snapshot schema v{found} is not the supported v{SNAPSHOT_SCHEMA_VERSION}"
            ),
            SnapshotError::AlgorithmMismatch { found } => {
                write!(f, "snapshot was taken by algorithm {found}")
            }
            SnapshotError::GraphMismatch => {
                write!(f, "snapshot k/n/m do not match the restore target")
            }
            SnapshotError::Malformed { line } => write!(f, "malformed snapshot at line {line}"),
            SnapshotError::LoadMismatch => {
                write!(f, "recorded loads disagree with the restored tables")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes the run-varying state of `sp` into the canonical snapshot
/// format. Prefer the method form
/// [`StreamingPartitioner::snapshot`]; this free function is the
/// implementation both share.
pub fn write_snapshot(sp: &StreamingPartitioner<'_>) -> String {
    let g = sp.graph();
    let mut out = String::new();
    let mut push = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(format!("sgp-snapshot v{SNAPSHOT_SCHEMA_VERSION}"));
    push(format!("alg {}", sp.algorithm().short_name()));
    let kind = match sp.input() {
        StreamInput::Vertices => "vertex",
        StreamInput::Edges => "edge",
        StreamInput::Offline => "offline",
    };
    push(format!("kind {kind}"));
    push(format!("k {}", sp.k()));
    push(format!("n {}", g.num_vertices()));
    push(format!("m {}", g.num_edges()));
    push(format!("seq {}", sp.elements_ingested()));
    match sp.machine() {
        Machine::Vertex { core, .. } => {
            for (v, &p) in core.state().assignment.iter().enumerate() {
                if p != UNASSIGNED {
                    push(format!("assign {v} {p}"));
                }
            }
            for (i, &size) in core.state().sizes.iter().enumerate() {
                push(format!("load {i} {size}"));
            }
            for (key, value) in core.partitioner().snapshot_records() {
                push(format!("palg {key} {value}"));
            }
            // Look-ahead window contents (DESIGN.md §12): only the
            // vertex id is recorded — the record is config-pure and is
            // rebuilt from the graph at restore time.
            for rec in sp.window_vertex_buffer() {
                push(format!("wv {}", rec.vertex));
            }
        }
        Machine::Edge { core } => {
            for (i, &p) in core.edge_parts().iter().enumerate() {
                if p != 0 {
                    push(format!("edge {i} {p}"));
                }
            }
            for (u, set) in core.state().replica_entries() {
                let joined: Vec<String> = set.map(|p| p.to_string()).collect();
                push(format!("replica {u} {}", joined.join(",")));
            }
            for (u, d) in core.state().partial_degree_entries() {
                push(format!("pdeg {u} {d}"));
            }
            for (i, &count) in core.state().edge_counts.iter().enumerate() {
                push(format!("load {i} {count}"));
            }
            push(format!("rc {}", core.state().replicas_created));
            push(format!("mc {}", core.state().mirror_creations));
            for (key, value) in core.partitioner().snapshot_records() {
                push(format!("palg {key} {value}"));
            }
            // Look-ahead window contents, in arrival order.
            for e in sp.window_edge_buffer() {
                push(format!("we {} {}", e.src, e.dst));
            }
        }
        Machine::Offline => {}
    }
    push("end".to_string());
    out
}

/// Everything a snapshot can carry, accumulated before any state is
/// touched so a malformed snapshot never leaves a half-restored machine.
#[derive(Default)]
struct Parsed {
    seq: u64,
    assigns: Vec<(u32, PartitionId)>,
    edges: Vec<(usize, PartitionId)>,
    replicas: Vec<(u32, Vec<PartitionId>)>,
    pdegs: Vec<(u32, u64)>,
    loads: Vec<u64>,
    replicas_created: u64,
    mirror_creations: u64,
    palgs: Vec<(String, String)>,
    window_vertices: Vec<u32>,
    window_edges: Vec<(u32, u32)>,
    saw_end: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    s.parse::<u64>().ok()
}

/// Rebuilds a [`StreamingPartitioner`] from `text`, previously produced
/// by [`write_snapshot`] for the same graph, algorithm, and config.
/// Prefer the method form [`StreamingPartitioner::restore`].
pub fn read_snapshot<'g>(
    g: &'g Graph,
    algorithm: Algorithm,
    cfg: &PartitionerConfig,
    text: &str,
) -> Result<StreamingPartitioner<'g>, SnapshotError> {
    restore_into(StreamingPartitioner::init(g, algorithm, cfg), text)
}

/// [`read_snapshot`] onto a freshly initialized machine `sp`.
pub(crate) fn restore_into<'g>(
    mut sp: StreamingPartitioner<'g>,
    text: &str,
) -> Result<StreamingPartitioner<'g>, SnapshotError> {
    let (g, algorithm) = (sp.graph(), sp.algorithm());
    let expected_kind = match sp.input() {
        StreamInput::Vertices => "vertex",
        StreamInput::Edges => "edge",
        StreamInput::Offline => "offline",
    };
    let k = sp.k();

    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or(SnapshotError::Malformed { line: 1 })?;
    let found = first
        .strip_prefix("sgp-snapshot v")
        .and_then(parse_u64)
        .ok_or(SnapshotError::Malformed { line: 1 })?;
    if found != u64::from(SNAPSHOT_SCHEMA_VERSION) {
        return Err(SnapshotError::SchemaMismatch { found: found.min(u64::from(u32::MAX)) as u32 });
    }

    let mut parsed = Parsed::default();
    for (idx, line) in lines {
        let lineno = idx + 1;
        let bad = SnapshotError::Malformed { line: lineno };
        if parsed.saw_end {
            // Trailing garbage after `end` means truncation went the
            // other way — refuse rather than silently ignore.
            return Err(bad);
        }
        if line == "end" {
            parsed.saw_end = true;
            continue;
        }
        let (key, rest) = line.split_once(' ').ok_or(bad.clone())?;
        match key {
            "alg" => {
                if rest != algorithm.short_name() {
                    return Err(SnapshotError::AlgorithmMismatch { found: rest.to_string() });
                }
            }
            "kind" => {
                if rest != expected_kind {
                    return Err(SnapshotError::AlgorithmMismatch { found: rest.to_string() });
                }
            }
            "k" => {
                if parse_u64(rest) != Some(k as u64) {
                    return Err(SnapshotError::GraphMismatch);
                }
            }
            "n" => {
                if parse_u64(rest) != Some(g.num_vertices() as u64) {
                    return Err(SnapshotError::GraphMismatch);
                }
            }
            "m" => {
                if parse_u64(rest) != Some(g.num_edges() as u64) {
                    return Err(SnapshotError::GraphMismatch);
                }
            }
            "seq" => parsed.seq = parse_u64(rest).ok_or(bad)?,
            "assign" => {
                let (v, p) = rest.split_once(' ').ok_or(bad.clone())?;
                let v = parse_u64(v).ok_or(bad.clone())?;
                let p = parse_u64(p).ok_or(bad.clone())?;
                if v >= g.num_vertices() as u64 || p >= k as u64 {
                    return Err(bad);
                }
                parsed.assigns.push((v as u32, p as PartitionId));
            }
            "edge" => {
                let (i, p) = rest.split_once(' ').ok_or(bad.clone())?;
                let i = parse_u64(i).ok_or(bad.clone())?;
                let p = parse_u64(p).ok_or(bad.clone())?;
                if i >= g.num_edges() as u64 || p >= k as u64 {
                    return Err(bad);
                }
                parsed.edges.push((i as usize, p as PartitionId));
            }
            "replica" => {
                let (u, set) = rest.split_once(' ').ok_or(bad.clone())?;
                let u = parse_u64(u).ok_or(bad.clone())?;
                let mut parts = Vec::new();
                for item in set.split(',') {
                    parts.push(parse_u64(item).ok_or(bad.clone())? as PartitionId);
                }
                if u >= g.num_vertices() as u64 {
                    return Err(bad);
                }
                parsed.replicas.push((u as u32, parts));
            }
            "pdeg" => {
                let (u, d) = rest.split_once(' ').ok_or(bad.clone())?;
                let u = parse_u64(u).ok_or(bad.clone())?;
                let d = parse_u64(d).ok_or(bad.clone())?;
                if u >= g.num_vertices() as u64 {
                    return Err(bad);
                }
                parsed.pdegs.push((u as u32, d));
            }
            "load" => {
                let (i, c) = rest.split_once(' ').ok_or(bad.clone())?;
                let i = parse_u64(i).ok_or(bad.clone())?;
                let c = parse_u64(c).ok_or(bad.clone())?;
                // Loads must arrive densely in partition order — that is
                // what `write_snapshot` emits, and canonical means we
                // accept nothing looser.
                if i != parsed.loads.len() as u64 || i >= k as u64 {
                    return Err(bad);
                }
                parsed.loads.push(c);
            }
            "rc" => parsed.replicas_created = parse_u64(rest).ok_or(bad)?,
            "mc" => parsed.mirror_creations = parse_u64(rest).ok_or(bad)?,
            "palg" => {
                let (pk, pv) = rest.split_once(' ').ok_or(bad)?;
                parsed.palgs.push((pk.to_string(), pv.to_string()));
            }
            "wv" => {
                let v = parse_u64(rest).ok_or(bad.clone())?;
                if v >= g.num_vertices() as u64 {
                    return Err(bad);
                }
                parsed.window_vertices.push(v as u32);
            }
            "we" => {
                let (s, d) = rest.split_once(' ').ok_or(bad.clone())?;
                let s = parse_u64(s).ok_or(bad.clone())?;
                let d = parse_u64(d).ok_or(bad.clone())?;
                if s >= g.num_vertices() as u64 || d >= g.num_vertices() as u64 {
                    return Err(bad);
                }
                parsed.window_edges.push((s as u32, d as u32));
            }
            _ => return Err(bad),
        }
    }
    if !parsed.saw_end {
        // A canonical snapshot always closes with `end`; its absence
        // means the file was truncated mid-write.
        return Err(SnapshotError::Malformed { line: text.lines().count().max(1) });
    }

    apply(&mut sp, parsed, k, g)?;
    Ok(sp)
}

/// Applies fully-parsed records onto a freshly initialized machine.
fn apply(
    sp: &mut StreamingPartitioner<'_>,
    parsed: Parsed,
    k: usize,
    g: &Graph,
) -> Result<(), SnapshotError> {
    match sp.machine_mut() {
        Machine::Vertex { core, .. } => {
            if parsed.loads.len() != k {
                return Err(SnapshotError::LoadMismatch);
            }
            for &(v, p) in &parsed.assigns {
                core.state_mut().assignment[v as usize] = p;
            }
            // Sizes are derivable from the assignment; recompute and use
            // the recorded loads as an integrity check on the snapshot.
            let mut sizes = vec![0u64; k];
            for &p in core.state().assignment.iter() {
                if p != UNASSIGNED {
                    sizes[p as usize] += 1;
                }
            }
            if sizes != parsed.loads {
                return Err(SnapshotError::LoadMismatch);
            }
            core.state_mut().sizes = sizes.into_iter().map(|s| s as usize).collect();
            for (key, value) in &parsed.palgs {
                if !core.partitioner_mut().restore_record(key, value) {
                    return Err(SnapshotError::Malformed { line: 0 });
                }
            }
            core.set_seq(parsed.seq);
        }
        Machine::Edge { core } => {
            if parsed.loads.len() != k {
                return Err(SnapshotError::LoadMismatch);
            }
            // Unlike vertex sizes, edge loads are independent state (an
            // edge restreamed onto partition 0 is indistinguishable from
            // an unplaced slot in `edge_parts`); the only cross-check
            // available is that they sum to the sequence counter.
            if parsed.loads.iter().sum::<u64>() != parsed.seq {
                return Err(SnapshotError::LoadMismatch);
            }
            for &(i, p) in &parsed.edges {
                core.edge_parts_mut()[i] = p;
            }
            for (u, set) in parsed.replicas {
                if !core.state_mut().restore_replicas(u, set) {
                    return Err(SnapshotError::Malformed { line: 0 });
                }
            }
            for (u, d) in parsed.pdegs {
                if !core.state_mut().restore_partial_degree(u, d) {
                    return Err(SnapshotError::Malformed { line: 0 });
                }
            }
            core.state_mut().edge_counts = parsed.loads.iter().map(|&c| c as usize).collect();
            core.state_mut().replicas_created = parsed.replicas_created;
            core.state_mut().mirror_creations = parsed.mirror_creations;
            for (key, value) in &parsed.palgs {
                if !core.partitioner_mut().restore_record(key, value) {
                    return Err(SnapshotError::Malformed { line: 0 });
                }
            }
            core.set_seq(parsed.seq);
        }
        Machine::Offline => {
            // The offline baseline carries no streaming state; a
            // snapshot of it is just the header, and restore is init.
        }
    }
    // Refill the look-ahead window last, once the core borrow is done.
    // A record of the wrong stream kind marks a spliced snapshot.
    match sp.input() {
        StreamInput::Vertices => {
            if !parsed.window_edges.is_empty() {
                return Err(SnapshotError::Malformed { line: 0 });
            }
            for v in parsed.window_vertices {
                sp.push_window_vertex(VertexRecord::for_vertex(g, v));
            }
        }
        StreamInput::Edges => {
            if !parsed.window_vertices.is_empty() {
                return Err(SnapshotError::Malformed { line: 0 });
            }
            for (s, d) in parsed.window_edges {
                sp.push_window_edge(Edge::new(s, d));
            }
        }
        StreamInput::Offline => {
            if !parsed.window_vertices.is_empty() || !parsed.window_edges.is_empty() {
                return Err(SnapshotError::Malformed { line: 0 });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{drive_facade, facade_run};
    use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};
    use sgp_graph::StreamOrder;

    fn graph() -> Graph {
        erdos_renyi(ErdosRenyiConfig { vertices: 200, edges: 1200, seed: 11 })
    }

    /// `unwrap_err` needs `Debug` on the success type; the machine holds
    /// boxed trait objects, so unwrap by hand.
    fn restore_err(
        g: &Graph,
        alg: Algorithm,
        cfg: &PartitionerConfig,
        text: &str,
    ) -> SnapshotError {
        match StreamingPartitioner::restore(g, alg, cfg, text) {
            Ok(_) => panic!("restore unexpectedly succeeded"),
            Err(e) => e,
        }
    }

    /// Streams `g` into a machine, snapshotting after `cut` chunks,
    /// restoring into a fresh machine, finishing the stream there, and
    /// returning the sealed result plus the snapshot it crossed (the
    /// offline baseline round-trips before its seal).
    fn interrupted_run(
        g: &Graph,
        alg: Algorithm,
        cfg: &PartitionerConfig,
        order: StreamOrder,
        chunk: usize,
        cut: usize,
    ) -> (crate::assignment::Partitioning, String) {
        let mut text = None;
        let p = drive_facade(g, alg, cfg, order, chunk, |sp, fed| {
            if fed == cut || sp.input() == StreamInput::Offline {
                let snap = sp.snapshot();
                *sp = StreamingPartitioner::restore(g, alg, cfg, &snap).unwrap();
                text = Some(snap);
            }
        });
        (p, text.expect("cut point crossed"))
    }

    #[test]
    fn restore_then_continue_is_bit_identical_for_every_algorithm() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed: 17 };
        for &alg in Algorithm::all() {
            let whole = facade_run(&g, alg, &cfg, order, 32);
            let (resumed, _) = interrupted_run(&g, alg, &cfg, order, 32, 3);
            assert_eq!(whole.edge_parts, resumed.edge_parts, "{alg}");
            assert_eq!(whole.vertex_owner, resumed.vertex_owner, "{alg}");
        }
    }

    #[test]
    fn snapshot_of_restored_machine_is_byte_identical() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        for &alg in Algorithm::all() {
            let (_, snap) = interrupted_run(&g, alg, &cfg, StreamOrder::Natural, 16, 2);
            let restored = StreamingPartitioner::restore(&g, alg, &cfg, &snap).unwrap();
            assert_eq!(restored.snapshot(), snap, "{alg}");
        }
    }

    #[test]
    fn wrong_schema_version_is_rejected_with_typed_error() {
        let g = graph();
        let cfg = PartitionerConfig::new(2);
        let err = restore_err(&g, Algorithm::Ldg, &cfg, "sgp-snapshot v0\nend\n");
        assert_eq!(err, SnapshotError::SchemaMismatch { found: 0 });
    }

    #[test]
    fn wrong_algorithm_and_wrong_graph_are_rejected() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let sp = StreamingPartitioner::init(&g, Algorithm::Hdrf, &cfg);
        let snap = sp.snapshot();
        let err = restore_err(&g, Algorithm::Ldg, &cfg, &snap);
        assert_eq!(err, SnapshotError::AlgorithmMismatch { found: "HDRF".to_string() });
        let other = erdos_renyi(ErdosRenyiConfig { vertices: 50, edges: 200, seed: 1 });
        let err = restore_err(&other, Algorithm::Hdrf, &cfg, &snap);
        assert_eq!(err, SnapshotError::GraphMismatch);
    }

    #[test]
    fn truncated_and_corrupted_snapshots_are_rejected() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let (_, snap) = interrupted_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, 2);
        // Truncation: drop the trailing `end` line.
        let truncated = snap.trim_end_matches("end\n");
        let err = restore_err(&g, Algorithm::Hdrf, &cfg, truncated);
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err:?}");
        // Corruption: tamper with a load record so the sum check fails.
        let corrupted = snap.replacen("load 0 ", "load 0 9", 1);
        let err = restore_err(&g, Algorithm::Hdrf, &cfg, &corrupted);
        assert_eq!(err, SnapshotError::LoadMismatch);
    }
}
