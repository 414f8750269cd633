//! Schema-versioned snapshot/restore for the incremental streaming core
//! (DESIGN.md §11).
//!
//! A snapshot captures the placement state of a [`StreamingPartitioner`]
//! at a chunk boundary — assignments, loads, replica sets and partial
//! degrees, the look-ahead window, and the private tables a machine's
//! placements read — in a canonical one-record-per-line text format. The
//! contract mirrors the chunking contract of `crate::streaming`: for
//! every Table 2 algorithm, restoring a snapshot and continuing the
//! stream is bit-identical to the uninterrupted run, because placement
//! decisions depend only on the element sequence and the state folded
//! over it (all of which the snapshot carries; config-pure inputs like
//! degree oracles are rebuilt from the graph at restore time).
//!
//! A snapshot holds no counters: no placement reads one, so a restored
//! machine's decision and work counters start at zero. This module
//! alone knows the text: a machine hands its private tables over as
//! named lists of integers, written as `palg <name> <u64,…>` records.
//!
//! Canonical means byte-deterministic: the same machine state always
//! serializes to the same bytes — records are emitted in fixed order
//! (index order within each record class), sparse tables skip their
//! default entries, and nothing wallclock- or address-dependent is ever
//! written. `snapshot(restore(s)) == s` therefore holds for every valid
//! snapshot `s`, and the reader accepts nothing looser than what the
//! writer emits.
//!
//! The format is schema-versioned like the trace stream:
//! [`SNAPSHOT_SCHEMA_VERSION`] is stamped into the header, pinned in
//! `tests/goldens/SCHEMA_VERSIONS`, and a snapshot from any other version
//! is rejected with a typed [`SnapshotError`] instead of being misread.
#![expect(
    clippy::indexing_slicing,
    reason = "restored ids are range-checked against n, m and k while parsing, before the tables sized by them are indexed"
)]

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
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 3;

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

/// The `kind` header value of a stream input.
fn kind_name(input: StreamInput) -> &'static str {
    match input {
        StreamInput::Vertices => "vertex",
        StreamInput::Edges => "edge",
        StreamInput::Offline => "offline",
    }
}

/// `values` comma-separated.
fn join(values: impl IntoIterator<Item = u64>) -> String {
    values.into_iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

/// Serializes the placement state of `sp` into the canonical snapshot
/// format. Prefer the method form [`StreamingPartitioner::snapshot`];
/// this free function is the implementation both share.
pub(crate) fn write_snapshot(sp: &StreamingPartitioner<'_>) -> String {
    let g = sp.g;
    let mut out = String::new();
    let mut push = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(format!("sgp-snapshot v{SNAPSHOT_SCHEMA_VERSION}"));
    push(format!("alg {}", sp.algorithm.short_name()));
    push(format!("kind {}", kind_name(sp.input())));
    push(format!("k {}", sp.k));
    push(format!("n {}", g.num_vertices()));
    push(format!("m {}", g.num_edges()));
    push(format!("seq {}", sp.elements_ingested()));
    let palg = |(key, values): (&str, Vec<u64>)| format!("palg {key} {}", join(values));
    match &sp.machine {
        Machine::Vertex { core, .. } => {
            for (v, &p) in core.state.assignment.iter().enumerate() {
                if p != UNASSIGNED {
                    push(format!("assign {v} {p}"));
                }
            }
            for (i, &size) in core.state.sizes.iter().enumerate() {
                push(format!("load {i} {size}"));
            }
            core.partitioner.snapshot_state().into_iter().map(palg).for_each(&mut push);
            // Look-ahead window contents (DESIGN.md §12): only the
            // vertex id is recorded — the record is config-pure and is
            // rebuilt from the graph at restore time.
            for rec in &sp.wbuf_v {
                push(format!("wv {}", rec.vertex));
            }
        }
        Machine::Edge { core } => {
            for (i, &p) in core.edge_parts.iter().enumerate() {
                if p != 0 {
                    push(format!("edge {i} {p}"));
                }
            }
            for (u, set) in core.state.replica_entries() {
                push(format!("replica {u} {}", join(set.map(u64::from))));
            }
            for (u, d) in core.state.partial_degree_entries() {
                push(format!("pdeg {u} {d}"));
            }
            for (i, &count) in core.state.edge_counts.iter().enumerate() {
                push(format!("load {i} {count}"));
            }
            core.partitioner.snapshot_state().into_iter().map(palg).for_each(&mut push);
            // Look-ahead window contents, in arrival order: the CSR
            // slot alone, which names a parallel copy apart from the
            // others and gives the edge back at restore time.
            for &(slot, _) in &sp.wbuf_e {
                push(format!("we {slot}"));
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
    /// `(line, name, values)`: the machine judges these at apply time,
    /// and a refusal is reported at its 1-indexed line.
    palgs: Vec<(usize, String, Vec<u64>)>,
    window_vertices: Vec<u32>,
    window_edges: Vec<(u32, Edge)>,
    saw_end: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    s.parse::<u64>().ok()
}

/// A comma-separated list of integers.
fn parse_list(s: &str) -> Option<Vec<u64>> {
    s.split(',').map(parse_u64).collect()
}

/// Two space-separated integers, the first below `bound`.
fn parse_pair(s: &str, bound: usize) -> Option<(u64, u64)> {
    let (a, b) = s.split_once(' ')?;
    let a = parse_u64(a).filter(|&a| a < bound as u64)?;
    Some((a, parse_u64(b)?))
}

/// Rebuilds a [`StreamingPartitioner`] from `text`, previously produced
/// by [`write_snapshot`] for the same graph, algorithm, and config.
/// Prefer the method form [`StreamingPartitioner::restore`].
pub(crate) fn read_snapshot<'g>(
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
    let parsed = parse(&sp, text)?;
    apply(&mut sp, parsed)?;
    Ok(sp)
}

/// Parses `text` against the shape of `sp`: its algorithm, stream kind,
/// graph and `k`. Every id is range-checked here, and a record of the
/// other stream kind is refused, so every error carries its line.
fn parse(sp: &StreamingPartitioner<'_>, text: &str) -> Result<Parsed, SnapshotError> {
    let (g, k, input) = (sp.g, sp.k, sp.input());
    let (n, m) = (g.num_vertices(), g.num_edges());
    let (vertex, edge) = (input == StreamInput::Vertices, input == StreamInput::Edges);

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
        let partition = |p: u64| (p < k as u64).then_some(p as PartitionId).ok_or(bad.clone());
        match key {
            "alg" => {
                if rest != sp.algorithm.short_name() {
                    return Err(SnapshotError::AlgorithmMismatch { found: rest.to_string() });
                }
            }
            "kind" => {
                if rest != kind_name(input) {
                    return Err(SnapshotError::AlgorithmMismatch { found: rest.to_string() });
                }
            }
            "k" | "n" | "m" => {
                let want = match key {
                    "k" => k,
                    "n" => n,
                    _ => m,
                };
                if parse_u64(rest) != Some(want as u64) {
                    return Err(SnapshotError::GraphMismatch);
                }
            }
            "seq" => parsed.seq = parse_u64(rest).ok_or(bad)?,
            "assign" if vertex => {
                let (v, p) = parse_pair(rest, n).ok_or(bad.clone())?;
                parsed.assigns.push((v as u32, partition(p)?));
            }
            "edge" if edge => {
                let (i, p) = parse_pair(rest, m).ok_or(bad.clone())?;
                parsed.edges.push((i as usize, partition(p)?));
            }
            "replica" if edge => {
                let (u, set) = rest.split_once(' ').ok_or(bad.clone())?;
                let u = parse_u64(u).filter(|&u| u < n as u64).ok_or(bad.clone())?;
                let set = parse_list(set).ok_or(bad.clone())?;
                // Ascending, the order the bitset scan writes.
                if set.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(bad);
                }
                let set = set.into_iter().map(partition).collect::<Result<_, _>>()?;
                parsed.replicas.push((u as u32, set));
            }
            "pdeg" if edge => {
                let (u, d) = parse_pair(rest, n).ok_or(bad)?;
                parsed.pdegs.push((u as u32, d));
            }
            "load" if vertex || edge => {
                let (i, c) = parse_pair(rest, k).ok_or(bad.clone())?;
                // Loads must arrive densely in partition order — that is
                // what `write_snapshot` emits, and canonical means we
                // accept nothing looser.
                if i != parsed.loads.len() as u64 {
                    return Err(bad);
                }
                parsed.loads.push(c);
            }
            "palg" if vertex || edge => {
                let (name, values) = rest.split_once(' ').ok_or(bad.clone())?;
                let values = parse_list(values).ok_or(bad)?;
                parsed.palgs.push((lineno, name.to_string(), values));
            }
            "wv" if vertex => {
                let v = parse_u64(rest).filter(|&v| v < n as u64).ok_or(bad)?;
                parsed.window_vertices.push(v as u32);
            }
            "we" if edge => {
                // A buffered edge is placed into its CSR slot at seal;
                // `edge_at` refuses a slot past the last edge.
                let slot =
                    parse_u64(rest).and_then(|slot| u32::try_from(slot).ok()).ok_or(bad.clone())?;
                let e = g.edge_at(slot as usize).ok_or(bad)?;
                parsed.window_edges.push((slot, e));
            }
            _ => return Err(bad),
        }
    }
    if !parsed.saw_end {
        // A canonical snapshot always closes with `end`; its absence
        // means the file was truncated mid-write.
        return Err(SnapshotError::Malformed { line: text.lines().count().max(1) });
    }
    Ok(parsed)
}

/// Hands each `palg` record to the machine's `restore`, reporting the
/// first it refuses at that record's line.
fn restore_palgs(
    palgs: &[(usize, String, Vec<u64>)],
    mut restore: impl FnMut(&str, &[u64]) -> bool,
) -> Result<(), SnapshotError> {
    match palgs.iter().find(|(_, name, values)| !restore(name, values)) {
        Some(&(line, ..)) => Err(SnapshotError::Malformed { line }),
        None => Ok(()),
    }
}

/// Applies fully-parsed records onto a freshly initialized machine.
fn apply(sp: &mut StreamingPartitioner<'_>, parsed: Parsed) -> Result<(), SnapshotError> {
    let (g, k) = (sp.g, sp.k);
    match &mut sp.machine {
        Machine::Vertex { core, .. } => {
            for &(v, p) in &parsed.assigns {
                core.state.assignment[v as usize] = p;
            }
            // Sizes are derivable from the assignment; recompute and use
            // the recorded loads as an integrity check on the snapshot.
            let mut sizes = vec![0usize; k];
            for &p in &core.state.assignment {
                if p != UNASSIGNED {
                    sizes[p as usize] += 1;
                }
            }
            if !sizes.iter().map(|&s| s as u64).eq(parsed.loads.iter().copied()) {
                return Err(SnapshotError::LoadMismatch);
            }
            core.state.sizes = sizes;
            restore_palgs(&parsed.palgs, |name, values| {
                core.partitioner.restore_state(name, values)
            })?;
            core.seq = parsed.seq;
        }
        Machine::Edge { core } => {
            // Unlike vertex sizes, edge loads are independent state (an
            // edge restreamed onto partition 0 is indistinguishable from
            // an unplaced slot in `edge_parts`); the only cross-check
            // available is that they sum to the sequence counter.
            let total = parsed.loads.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
            if parsed.loads.len() != k || total != Some(parsed.seq) {
                return Err(SnapshotError::LoadMismatch);
            }
            for &(i, p) in &parsed.edges {
                core.edge_parts[i] = p;
            }
            for (u, set) in &parsed.replicas {
                core.state.restore_replicas(*u, set);
            }
            for &(u, d) in &parsed.pdegs {
                core.state.restore_partial_degree(u, d);
            }
            core.state.edge_counts = parsed.loads.iter().map(|&c| c as usize).collect();
            restore_palgs(&parsed.palgs, |name, values| {
                core.partitioner.restore_state(name, values)
            })?;
            core.seq = parsed.seq;
        }
        Machine::Offline => {
            // The offline baseline carries no streaming state; a
            // snapshot of it is just the header, and restore is init.
        }
    }
    // Refill the look-ahead window; the parser let only records of this
    // machine's stream kind through.
    sp.wbuf_v.extend(parsed.window_vertices.iter().map(|&v| VertexRecord::for_vertex(g, v)));
    sp.wbuf_e.extend(parsed.window_edges);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::DecisionStats;
    use crate::edge_cut::tests::facade_stats;
    use crate::support::{drive_facade, facade_run};
    use sgp_graph::generators::{erdos_renyi, road_grid, ErdosRenyiConfig, RoadConfig};
    use sgp_graph::sampling::check_cases;
    use sgp_graph::{StreamOrder, VertexId};
    use std::borrow::Cow;

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

    /// The look-ahead window holds lent rows on the lattice (every row
    /// symmetric) and merged rows on a directed random graph. A restore
    /// rebuilds both through `VertexRecord::for_vertex`, and the resumed
    /// run matches the uninterrupted one snapshot for snapshot.
    #[test]
    fn windowed_restore_rebuilds_lent_and_merged_rows() {
        let lattice =
            road_grid(RoadConfig { width: 12, height: 12, seed: 3, ..RoadConfig::default() });
        let random = graph();
        let lent = |g: &Graph| {
            let lent = |&v: &VertexId| {
                matches!(VertexRecord::for_vertex(g, v).neighbors, Cow::Borrowed(_))
            };
            g.vertices().filter(lent).count()
        };
        assert_eq!(lent(&lattice), lattice.num_vertices(), "every lattice row is lent");
        assert!(lent(&random) < random.num_vertices() / 2, "most random rows are merged");
        let order = StreamOrder::Bfs;
        for (name, g) in [("lattice", &lattice), ("random", &random)] {
            for window in [1, 3] {
                let cfg = PartitionerConfig::new(8).with_window(window);
                for &alg in Algorithm::all() {
                    if StreamingPartitioner::init(g, alg, &cfg).input() != StreamInput::Vertices {
                        continue;
                    }
                    let what = format!("{alg} on the {name}, W = {window}");
                    let mut texts = Vec::new();
                    let whole =
                        drive_facade(g, alg, &cfg, order, 16, |sp, _| texts.push(sp.snapshot()));
                    let mut resumed_texts = Vec::new();
                    let resumed = drive_facade(g, alg, &cfg, order, 16, |sp, fed| {
                        if fed == 3 {
                            let snap = sp.snapshot();
                            assert_eq!(
                                snap.contains("\nwv "),
                                window > 1,
                                "{what}: buffered records in the snapshot"
                            );
                            *sp = StreamingPartitioner::restore(g, alg, &cfg, &snap).unwrap();
                        }
                        resumed_texts.push(sp.snapshot());
                    });
                    assert_eq!(resumed_texts, texts, "{what}");
                    assert_eq!(resumed.vertex_owner, whole.vertex_owner, "{what}");
                    assert_eq!(resumed.edge_parts, whole.edge_parts, "{what}");
                }
            }
        }
    }

    /// A `we` record naming a slot past the last edge is malformed: a
    /// window edge is placed into its slot at seal, which would index past
    /// the placement vector (under schema 2, a vertex pair that was no
    /// edge made `seal` panic looking its slot up).
    #[test]
    fn window_edge_not_in_the_graph_is_rejected() {
        let g = graph();
        let cfg = PartitionerConfig::new(4).with_window(3);
        let mut snap = String::new();
        drive_facade(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, |sp, fed| {
            if fed == 2 {
                snap = sp.snapshot();
            }
        });
        let (idx, line) =
            snap.lines().enumerate().find(|(_, l)| l.starts_with("we ")).expect("a buffered edge");
        let m = g.num_edges();
        for slot in [m.to_string(), (1u64 << 32).to_string(), format!("{} {}", 0, 1)] {
            let tampered = snap.replacen(line, &format!("we {slot}"), 1);
            let err = restore_err(&g, Algorithm::Hdrf, &cfg, &tampered);
            assert_eq!(err, SnapshotError::Malformed { line: idx + 1 }, "we {slot}");
        }
        // The last slot is in range; the untampered snapshot restores and
        // seals.
        let last = snap.replacen(line, &format!("we {}", m - 1), 1);
        assert!(StreamingPartitioner::restore(&g, Algorithm::Hdrf, &cfg, &last).is_ok());
        let restored = StreamingPartitioner::restore(&g, Algorithm::Hdrf, &cfg, &snap).unwrap();
        assert_eq!(restored.seal().edge_parts.len(), g.num_edges());
    }

    #[test]
    fn wrong_schema_version_is_rejected_with_typed_error() {
        let g = graph();
        let cfg = PartitionerConfig::new(2);
        let err = restore_err(&g, Algorithm::Ldg, &cfg, "sgp-snapshot v0\nend\n");
        assert_eq!(err, SnapshotError::SchemaMismatch { found: 0 });
    }

    /// Schema 1 carried decision counters (`rc`, `mc` and five `palg`
    /// counter records) and string-valued `palg` records; schema 2 named a
    /// window edge by its endpoints (`we s d`), which cannot tell the
    /// parallel copies of a multigraph edge apart. Their documents are
    /// refused, not misread.
    #[test]
    fn a_v1_or_v2_document_is_refused() {
        let g = graph();
        let cfg = PartitionerConfig::new(4).with_window(3);
        let (_, snap) = interrupted_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, 2);
        assert!(snap.contains("\nwe "), "the window holds an edge");
        for found in [1, 2] {
            let old = snap.replacen("sgp-snapshot v3\n", &format!("sgp-snapshot v{found}\n"), 1);
            assert_ne!(old, snap);
            let err = restore_err(&g, Algorithm::Hdrf, &cfg, &old);
            assert_eq!(err, SnapshotError::SchemaMismatch { found });
        }
    }

    /// No counter enters a snapshot: only the machines with private
    /// placement state write `palg` records, and a restored machine's
    /// decision counters start at zero.
    #[test]
    fn snapshots_hold_placement_state_and_no_counters() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        for &alg in Algorithm::all() {
            let (_, snap) = interrupted_run(&g, alg, &cfg, StreamOrder::Natural, 16, 3);
            for line in snap.lines().filter(|l| l.starts_with("palg ")) {
                let name = line.split(' ').nth(1).unwrap();
                assert!(name == "edge_counts" || name.starts_with("2ps."), "{alg}: {line}");
            }
            assert!(!snap.lines().any(|l| l.starts_with("rc ") || l.starts_with("mc ")), "{alg}");
            let restored = StreamingPartitioner::restore(&g, alg, &cfg, &snap).unwrap();
            assert_eq!(facade_stats(&restored), DecisionStats::default(), "{alg}");
        }
    }

    /// Replaces the first line starting with `prefix` by `with`; returns
    /// the new text and that line's 1-indexed number.
    fn tamper(snap: &str, prefix: &str, with: &str) -> (String, usize) {
        let mut lines: Vec<&str> = snap.lines().collect();
        let idx = lines.iter().position(|l| l.starts_with(prefix)).expect("record present");
        lines[idx] = with;
        (lines.iter().map(|l| format!("{l}\n")).collect(), idx + 1)
    }

    /// A replica id is range-checked as read, before it is narrowed to a
    /// partition id: 2^32 + 1 used to restore as partition 1.
    #[test]
    fn a_replica_id_past_k_is_refused_before_narrowing() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let (_, snap) = interrupted_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, 2);
        let (tampered, line) = tamper(&snap, "replica 0 ", "replica 0 4294967297");
        let err = restore_err(&g, Algorithm::Hdrf, &cfg, &tampered);
        assert_eq!(err, SnapshotError::Malformed { line });
    }

    /// Every refusal names its line, also those that used to be raised
    /// after parsing with line 0: a replica set out of range or not
    /// ascending, a `palg` record the machine refuses, and a window record
    /// of the other stream kind.
    #[test]
    fn every_refusal_reports_its_line() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let (_, snap) = interrupted_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, 2);
        for set in ["9", "2,1", "1,1"] {
            let (tampered, line) = tamper(&snap, "replica 0 ", &format!("replica 0 {set}"));
            let err = restore_err(&g, Algorithm::Hdrf, &cfg, &tampered);
            assert_eq!(err, SnapshotError::Malformed { line }, "replica set {set}");
        }
        let (tampered, line) = tamper(&snap, "load 0 ", "wv 0");
        let err = restore_err(&g, Algorithm::Hdrf, &cfg, &tampered);
        assert_eq!(err, SnapshotError::Malformed { line });

        let (_, snap) = interrupted_run(&g, Algorithm::Ginger, &cfg, StreamOrder::Natural, 16, 2);
        for record in ["palg edge_counts 1,2,3", "palg edge_count 1,2,3,4", "palg 2ps.vol 1,2"] {
            let (tampered, line) = tamper(&snap, "palg ", record);
            let err = restore_err(&g, Algorithm::Ginger, &cfg, &tampered);
            assert_eq!(err, SnapshotError::Malformed { line }, "{record}");
        }
        let (tampered, line) = tamper(&snap, "load 0 ", "we 0");
        let err = restore_err(&g, Algorithm::Ginger, &cfg, &tampered);
        assert_eq!(err, SnapshotError::Malformed { line });
    }

    /// A 2PS forest whose roots do not resolve to themselves is refused:
    /// `0 → 1, 1 → 0` used to restore, and the next chunk looped forever
    /// in the union-find.
    #[test]
    fn a_2ps_forest_with_a_cycle_is_refused() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let alg = Algorithm::TwoPhaseHdrf;
        let (_, snap) = interrupted_run(&g, alg, &cfg, StreamOrder::Natural, 16, 2);
        assert!(!snap.contains("palg 2ps.cpart"), "the cut is in the clustering pass");
        let (tampered, line) = tamper(&snap, "palg 2ps.parent ", "palg 2ps.parent 0,1,1,0,2,2,3,3");
        let err = restore_err(&g, alg, &cfg, &tampered);
        assert_eq!(err, SnapshotError::Malformed { line });
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

    /// One step of a facade run: a chunk of either stream kind, or the
    /// window flush at a pass boundary.
    #[derive(Clone)]
    enum Step<'g> {
        Vertices(Vec<VertexRecord<'g>>),
        Edges(Vec<(u32, Edge)>),
        Flush,
    }

    /// Every step `sp` takes over every pass of `g`'s stream in
    /// `chunk`-sized chunks.
    fn steps<'g>(
        g: &'g Graph,
        sp: &StreamingPartitioner<'g>,
        order: StreamOrder,
        chunk: usize,
    ) -> Vec<Step<'g>> {
        let mut steps = Vec::new();
        for _ in 0..sp.passes() {
            match sp.input() {
                StreamInput::Vertices => {
                    let mut source = sgp_graph::VertexStreamSource::new(g, order);
                    let mut buf = Vec::new();
                    while source.next_chunk(chunk, &mut buf) > 0 {
                        steps.push(Step::Vertices(buf.clone()));
                    }
                }
                _ => {
                    let mut source = sgp_graph::EdgeStreamSource::new(g, order);
                    let mut buf = Vec::new();
                    while source.next_slotted_chunk(chunk, &mut buf) > 0 {
                        steps.push(Step::Edges(buf.clone()));
                    }
                }
            }
            steps.push(Step::Flush);
        }
        steps
    }

    fn take<'g>(sp: &mut StreamingPartitioner<'g>, step: &Step<'g>) {
        match step {
            Step::Vertices(chunk) => sp.ingest_vertices(chunk).unwrap(),
            Step::Edges(chunk) => sp.ingest_slotted_edges(chunk).unwrap(),
            Step::Flush => sp.flush_window(),
        }
    }

    /// Every mutation of `text` the torture grid restores: each prefix
    /// ending at a line boundary, each single-line deletion and
    /// duplication, and each single-byte replacement by a digit, `,`, a
    /// space or a newline.
    fn mutations(text: &str) -> Vec<(String, String)> {
        assert!(text.is_ascii(), "snapshots are ASCII");
        let lines: Vec<&str> = text.lines().collect();
        let joined = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let mut out = Vec::new();
        for i in 0..=lines.len() {
            out.push((format!("prefix of {i} lines"), joined(&lines[..i])));
        }
        for i in 0..lines.len() {
            let mut deleted = lines.clone();
            deleted.remove(i);
            out.push((format!("line {} deleted", i + 1), joined(&deleted)));
            let mut doubled = lines.clone();
            doubled.insert(i, lines[i]);
            out.push((format!("line {} duplicated", i + 1), joined(&doubled)));
        }
        for (i, old) in text.bytes().enumerate() {
            for new in b"0123456789, \n".iter().copied().filter(|&new| new != old) {
                let mut bytes = text.as_bytes().to_vec();
                bytes[i] = new;
                let what = format!("byte {i} {:?} -> {:?}", old as char, new as char);
                out.push((what, String::from_utf8(bytes).unwrap()));
            }
        }
        out
    }

    /// A small graph for the torture grid: a random multigraph with
    /// self-loops and isolated vertices, or a perturbed lattice.
    fn torture_graph(rng: &mut sgp_graph::sampling::Rng, max_n: usize) -> Graph {
        if rng.index(2) == 0 {
            let n = rng.range(2..max_n);
            let mut b = sgp_graph::GraphBuilder::new().ensure_vertices(n);
            for _ in 0..rng.range(1..3 * n) {
                b.push_edge(rng.index(n) as u32, rng.index(n) as u32);
            }
            b.build()
        } else {
            let side = (max_n as f64).sqrt() as usize;
            road_grid(RoadConfig {
                width: rng.range(2..side.max(3)),
                height: rng.range(2..side.max(3)),
                seed: rng.next_u64(),
                ..RoadConfig::default()
            })
        }
    }

    /// The snapshot torture grid: on `cases` graphs of fewer than `max_n`
    /// vertices, for every algorithm at W = 1 and W = 3, a real snapshot
    /// taken at a random chunk boundary of each half of the run (so 2PS
    /// is cut in either pass) is restored under every [`mutations`] entry.
    /// Each restore must be a typed error, or a machine that takes the
    /// rest of the run and seals; a panic or a hang fails the test.
    /// Returns how many mutated documents restored and how many were
    /// refused.
    fn snapshot_torture(cases: u64, max_n: usize) -> (usize, usize) {
        let (mut restored, mut refused) = (0, 0);
        check_cases(cases, |rng| {
            let g = torture_graph(rng, max_n);
            let k = [1, 2, 3, 5][rng.index(4)];
            let order = [StreamOrder::Natural, StreamOrder::Bfs, StreamOrder::Random { seed: 3 }]
                [rng.index(3)];
            for window in [1, 3] {
                let cfg = PartitionerConfig::new(k).with_window(window);
                for &alg in Algorithm::all() {
                    let fresh = StreamingPartitioner::init(&g, alg, &cfg);
                    let chunk = rng.range(1..6);
                    let steps = steps(&g, &fresh, order, chunk);
                    let half = steps.len() / 2;
                    for cut in [rng.range(0..half + 1), rng.range(half..steps.len() + 1)] {
                        let mut sp = StreamingPartitioner::init(&g, alg, &cfg);
                        steps[..cut].iter().for_each(|step| take(&mut sp, step));
                        let text = sp.snapshot();
                        for (what, mutated) in mutations(&text) {
                            let at = format!("{alg} k={k} W={window} cut={cut}: {what}");
                            let run =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    match StreamingPartitioner::restore(&g, alg, &cfg, &mutated) {
                                        Ok(mut sp) => {
                                            steps[cut..]
                                                .iter()
                                                .for_each(|step| take(&mut sp, step));
                                            sp.seal();
                                            true
                                        }
                                        Err(_) => false,
                                    }
                                }));
                            match run {
                                Ok(true) => restored += 1,
                                Ok(false) => refused += 1,
                                Err(_) => panic!("{at} panicked; the document:\n{mutated}"),
                            }
                        }
                    }
                }
            }
        });
        (restored, refused)
    }

    /// The slice of the snapshot torture grid that runs under `cargo test`.
    #[test]
    fn mutated_snapshots_restore_to_a_typed_error_or_a_working_machine() {
        let (restored, refused) = snapshot_torture(1, 8);
        assert!(restored > 0 && refused > 0, "{restored} restored, {refused} refused");
    }

    /// The full snapshot torture grid: `cargo test --release -p
    /// sgp-partition --lib -- --ignored` (CI runs it on every push).
    #[test]
    #[ignore = "full grid; run in release"]
    fn mutated_snapshots_restore_to_a_typed_error_or_a_working_machine_full_grid() {
        let (restored, refused) = snapshot_torture(12, 40);
        println!("snapshot torture: {restored} mutations restored, {refused} refused, 0 failures");
    }
}
