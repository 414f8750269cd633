//! Schema-versioned snapshot/restore for the incremental streaming core
//! (DESIGN.md §11).
//!
//! A snapshot captures what a [`StreamingPartitioner`] has decided at a
//! chunk boundary — one record per placed element, the look-ahead
//! window, and the private tables a machine's placements read that no
//! replay rebuilds — in a canonical one-record-per-line text format.
//! Restore replays the decisions through the same `assign` / `record`
//! the stream uses, which rebuilds everything folded from them:
//! partition sizes, or replica sets, partial degrees, edge loads and the
//! replica counters. The contract mirrors the chunking contract of
//! `crate::streaming`: for every Table 2 algorithm, restoring a snapshot
//! and continuing the stream is bit-identical to the uninterrupted run,
//! because placement decisions depend only on the element sequence and
//! the state folded over it (config-pure inputs like degree oracles are
//! rebuilt from the graph at restore time).
//!
//! A snapshot holds no decision or work counter: no placement reads one,
//! so a restored machine's counters start at zero. This module alone
//! knows the text: a machine hands its private tables over as named
//! lists of integers, written as `palg <name> <u64,…>` records.
//!
//! Canonical means byte-deterministic: the same machine state always
//! serializes to the same bytes — a fixed header, then decisions in
//! ascending id order, `palg` records, and the window in arrival order,
//! and nothing wallclock- or address-dependent. `snapshot(restore(s)) ==
//! s` therefore holds for every valid snapshot `s`, and the reader
//! accepts nothing looser than what the writer emits.
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
use sgp_graph::Graph;
use std::collections::BTreeSet;

/// Version stamped into the snapshot header and pinned in
/// `tests/goldens/SCHEMA_VERSIONS`. Bump on any change to the record
/// vocabulary or semantics; old snapshots are rejected with
/// [`SnapshotError::SchemaMismatch`].
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 4;

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
    /// A line could not be parsed, referenced an out-of-range id, broke
    /// the writer's order, carried an unknown record key, or disagrees
    /// with the records after it (a `seq` that does not count them).
    Malformed {
        /// 1-indexed offending line.
        line: usize,
    },
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
    let palg = |(key, values): (&str, Vec<u64>)| {
        let values: Vec<String> = values.iter().map(u64::to_string).collect();
        format!("palg {key} {}", values.join(","))
    };
    // One record per placed element, in id order: `key <id> <partition>`.
    let mut decisions = |key: &str, parts: &[PartitionId]| {
        for (id, &p) in parts.iter().enumerate() {
            if p != UNASSIGNED {
                push(format!("{key} {id} {p}"));
            }
        }
    };
    match &sp.machine {
        Machine::Vertex { core, .. } => {
            decisions("assign", &core.state.assignment);
            core.partitioner.snapshot_state().into_iter().map(palg).for_each(&mut push);
            // Look-ahead window contents (DESIGN.md §12): only the
            // vertex id is recorded — the record is config-pure and is
            // rebuilt from the graph at restore time.
            for rec in &sp.wbuf_v {
                push(format!("wv {}", rec.vertex));
            }
        }
        Machine::Edge { core } => {
            decisions("edge", &core.edge_parts);
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

/// An integer the way the writer prints one: decimal digits, no sign,
/// no leading zero (`str::parse` also takes `+5` and `05`).
fn parse_u64(s: &str) -> Option<u64> {
    let canonical = s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
    s.parse::<u64>().ok().filter(|_| canonical)
}

/// A decision record's `<id> <partition>`: an id below `ids` and above
/// the previous record's (`last`, which it becomes), a partition below
/// `k`.
fn decision(
    rest: &str,
    ids: usize,
    k: usize,
    last: &mut Option<u64>,
) -> Option<(u64, PartitionId)> {
    let (id, p) = rest.split_once(' ')?;
    let (id, p) = (parse_u64(id)?, parse_u64(p)?);
    if id >= ids as u64 || p >= k as u64 || last.is_some_and(|last| last >= id) {
        return None;
    }
    *last = Some(id);
    Some((id, p as PartitionId))
}

/// A `palg` record's `<name> <u64,…>`.
fn palg(rest: &str) -> Option<(&str, Vec<u64>)> {
    let (name, values) = rest.split_once(' ')?;
    Some((name, values.split(',').map(parse_u64).collect::<Option<_>>()?))
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

/// [`read_snapshot`] onto a freshly initialized machine `sp`, which it
/// consumes: a refused document never leaves a half-restored machine.
///
/// The header is fixed, in the writer's order. Then each record is
/// checked against the shape of `sp` (algorithm, stream kind, graph and
/// `k`) and applied as read: a decision is replayed through the
/// machine's own `assign` / `record`, a `palg` record handed to the
/// machine, a window record pushed to its buffer. Every refusal carries
/// its line.
pub(crate) fn restore_into<'g>(
    mut sp: StreamingPartitioner<'g>,
    text: &str,
) -> Result<StreamingPartitioner<'g>, SnapshotError> {
    let (g, k, input) = (sp.g, sp.k, sp.input());
    let (n, m) = (g.num_vertices(), g.num_edges());
    // A missing line is reported at the last line there is.
    let truncated = SnapshotError::Malformed { line: text.lines().count().max(1) };
    let mut lines = text.lines().enumerate().map(|(idx, line)| (idx + 1, line));

    let (_, first) = lines.next().ok_or(truncated.clone())?;
    let found = first
        .strip_prefix("sgp-snapshot v")
        .and_then(parse_u64)
        .ok_or(SnapshotError::Malformed { line: 1 })?;
    if found != u64::from(SNAPSHOT_SCHEMA_VERSION) {
        return Err(SnapshotError::SchemaMismatch { found: found.min(u64::from(u32::MAX)) as u32 });
    }
    let mut field = |key: &str| {
        let (line, text) = lines.next().ok_or(truncated.clone())?;
        let value = text.strip_prefix(key).and_then(|rest| rest.strip_prefix(' '));
        value.map(|value| (line, value)).ok_or(SnapshotError::Malformed { line })
    };
    for key in ["alg", "kind"] {
        let (_, found) = field(key)?;
        let want = if key == "alg" { sp.algorithm.short_name() } else { kind_name(input) };
        if found != want {
            return Err(SnapshotError::AlgorithmMismatch { found: found.to_string() });
        }
    }
    for (key, want) in [("k", k), ("n", n), ("m", m)] {
        if parse_u64(field(key)?.1) != Some(want as u64) {
            return Err(SnapshotError::GraphMismatch);
        }
    }
    let (seq_line, seq) = field("seq")?;
    let bad_seq = SnapshotError::Malformed { line: seq_line };
    let seq = parse_u64(seq).ok_or(bad_seq.clone())?;
    // A vertex machine places each vertex at most once per pass; past
    // that, a facade was fed outside the snapshot contract.
    if input != StreamInput::Edges && seq > (sp.passes() * n) as u64 {
        return Err(bad_seq);
    }

    // Records come in classes, in the writer's order: decisions, `palg`
    // records, the window.
    let (mut class, mut last, mut decisions) = (0, None, 0u64);
    let mut window = BTreeSet::new();
    let mut saw_end = false;
    for (line, text) in lines {
        let bad = SnapshotError::Malformed { line };
        if saw_end {
            // Trailing garbage after `end` means truncation went the
            // other way — refuse rather than silently ignore.
            return Err(bad);
        }
        if text == "end" {
            saw_end = true;
            continue;
        }
        let (key, rest) = text.split_once(' ').ok_or(bad.clone())?;
        let record_class = match key {
            "assign" | "edge" => 0,
            "palg" => 1,
            _ => 2,
        };
        if record_class < class {
            return Err(bad);
        }
        class = record_class;
        let applied = match (key, &mut sp.machine) {
            ("assign", Machine::Vertex { core, .. }) => decision(rest, n, k, &mut last)
                .map(|(v, p)| core.state.assign(v as u32, p))
                .is_some(),
            ("edge", Machine::Edge { core }) => decision(rest, m, k, &mut last)
                .and_then(|(slot, p)| {
                    core.state.record(g.edge_at(slot as usize)?, p);
                    core.edge_parts[slot as usize] = p;
                    Some(())
                })
                .is_some(),
            ("palg", Machine::Vertex { core, .. }) => palg(rest)
                .is_some_and(|(name, values)| core.partitioner.restore_state(name, &values)),
            ("palg", Machine::Edge { core }) => palg(rest)
                .is_some_and(|(name, values)| core.partitioner.restore_state(name, &values)),
            ("wv", Machine::Vertex { .. }) => {
                let v = parse_u64(rest).filter(|&v| v < n as u64);
                v.map(|v| sp.wbuf_v.push(VertexRecord::for_vertex(g, v as u32))).is_some()
            }
            // A buffered edge waits to be placed into its slot: one that
            // is placed already, or waits twice, is not the writer's.
            ("we", Machine::Edge { core }) => parse_u64(rest)
                .and_then(|slot| u32::try_from(slot).ok())
                .and_then(|slot| Some((slot, g.edge_at(slot as usize)?)))
                .filter(|&(slot, _)| core.edge_parts[slot as usize] == UNASSIGNED)
                .filter(|&(slot, _)| window.insert(slot))
                .map(|buffered| sp.wbuf_e.push(buffered))
                .is_some(),
            _ => false,
        };
        if !applied {
            return Err(bad);
        }
        decisions += u64::from(record_class == 0);
    }
    if !saw_end {
        // A canonical snapshot always closes with `end`; its absence
        // means the file was truncated mid-write.
        return Err(truncated);
    }
    match &mut sp.machine {
        Machine::Vertex { core, .. } => core.seq = seq,
        // An edge machine's sequence counts its placed slots.
        Machine::Edge { core } if seq == decisions => core.seq = seq,
        Machine::Edge { .. } => return Err(bad_seq),
        Machine::Offline => {}
    }
    Ok(sp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::DecisionStats;
    use crate::edge_cut::tests::facade_stats;
    use crate::streaming::IngestError;
    use crate::support::{drive_facade, facade_run};
    use sgp_graph::generators::{erdos_renyi, road_grid, ErdosRenyiConfig, RoadConfig};
    use sgp_graph::sampling::check_cases;
    use sgp_graph::{Edge, StreamOrder, VertexId};
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
    /// parallel copies of a multigraph edge apart; schema 3 wrote the
    /// replica sets, partial degrees and loads next to the decisions that
    /// rebuild them, and no `edge` record for a placement on partition 0.
    /// Their documents are refused, not misread.
    #[test]
    fn a_v1_or_v2_document_is_refused() {
        let g = graph();
        let cfg = PartitionerConfig::new(4).with_window(3);
        let (_, snap) = interrupted_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, 2);
        assert!(snap.contains("\nwe "), "the window holds an edge");
        for found in [1, 2, 3] {
            let old = snap.replacen("sgp-snapshot v4\n", &format!("sgp-snapshot v{found}\n"), 1);
            assert_ne!(old, snap);
            let err = restore_err(&g, Algorithm::Hdrf, &cfg, &old);
            assert_eq!(err, SnapshotError::SchemaMismatch { found });
        }
    }

    /// A restore replays the decisions through `record`, which rebuilds
    /// the whole shared table of an edge machine — replica sets, partial
    /// degrees, edge loads and the replica and mirror counters — exactly
    /// as the uninterrupted machine folded it, for every edge algorithm,
    /// with and without a window, and for 2PS in either pass.
    #[test]
    fn a_restored_edge_table_equals_the_uninterrupted_one() {
        let g = graph();
        let table = |sp: &StreamingPartitioner<'_>| match &sp.machine {
            Machine::Edge { core } => format!("{:?} seq {}", core.state, core.seq),
            _ => unreachable!("an edge machine"),
        };
        for window in [1, 3] {
            let cfg = PartitionerConfig::new(5).with_window(window);
            for &alg in Algorithm::all() {
                if StreamingPartitioner::init(&g, alg, &cfg).input() != StreamInput::Edges {
                    continue;
                }
                let mut cuts = 0;
                drive_facade(&g, alg, &cfg, StreamOrder::Random { seed: 5 }, 64, |sp, fed| {
                    if fed % 7 == 3 {
                        let restored =
                            StreamingPartitioner::restore(&g, alg, &cfg, &sp.snapshot()).unwrap();
                        assert_eq!(table(&restored), table(sp), "{alg} W={window} cut {fed}");
                        cuts += 1;
                    }
                });
                assert!(cuts >= 2, "{alg}: the run was cut");
            }
        }
    }

    /// A placement on partition 0 is a decision like any other: its slot
    /// is written, and a restored machine does not place it again.
    #[test]
    fn a_placement_on_partition_0_is_written() {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let (_, snap) = interrupted_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, 2);
        let edges = snap.lines().filter(|l| l.starts_with("edge ")).count();
        assert_eq!(edges, 32, "every placed slot has its record");
        assert!(snap.lines().any(|l| l.starts_with("edge ") && l.ends_with(" 0")));
        assert!(snap.contains("\nseq 32\n"));
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

    /// Every refusal names its line: a decision that breaks the
    /// ascending order or names a slot, vertex or partition out of range
    /// (2^32 + 1 used to narrow to partition 1), an integer written with
    /// a sign or a leading zero, a window edge that is
    /// also placed or waits twice, a `seq` that does not count the edge
    /// records or exceeds what the passes place, a `palg` record the
    /// machine refuses, a record of the other stream kind, and a record
    /// out of the writer's class order.
    #[test]
    fn every_refusal_reports_its_line() {
        let g = graph();
        let (n, m) = (g.num_vertices(), g.num_edges());
        let cfg = PartitionerConfig::new(4).with_window(3);
        let (_, snap) = interrupted_run(&g, Algorithm::Hdrf, &cfg, StreamOrder::Natural, 16, 2);
        let lines: Vec<&str> = snap.lines().collect();
        let at = |prefix: &str| lines.iter().position(|l| l.starts_with(prefix)).unwrap();
        let (edge, we) = (at("edge "), at("we "));
        assert!(lines[we + 1].starts_with("we "), "the window holds two edges");
        let placed = lines[edge].split(' ').nth(1).unwrap();
        let waiting = lines[we].to_string();
        // `(line index, record, inserted there or replacing it)`.
        let cases = [
            (edge + 1, lines[edge].to_string(), true),
            (edge + 2, lines[edge].to_string(), true),
            (edge, format!("edge {m} 0"), false),
            (edge, format!("edge {placed} 4"), false),
            (edge, format!("edge {placed} 4294967297"), false),
            (edge, "wv 0".to_string(), false),
            (we, format!("we {placed}"), false),
            (we + 1, waiting, true),
            (we + 1, format!("edge {} 0", m - 1), false),
            (6, "seq 31".to_string(), false),
            (6, "seq 18446744073709551615".to_string(), false),
            (6, "seq +32".to_string(), false),
            (6, "seq 032".to_string(), false),
        ];
        for (idx, with, insert) in cases {
            let mut tampered = lines.clone();
            if insert {
                tampered.insert(idx, &with);
            } else {
                tampered[idx] = &with;
            }
            let text: String = tampered.iter().map(|l| format!("{l}\n")).collect();
            let err = restore_err(&g, Algorithm::Hdrf, &cfg, &text);
            assert_eq!(err, SnapshotError::Malformed { line: idx + 1 }, "{with}");
        }

        let cfg = PartitionerConfig::new(4);
        let (_, snap) = interrupted_run(&g, Algorithm::Ginger, &cfg, StreamOrder::Natural, 16, 2);
        for record in ["palg edge_counts 1,2,3", "palg edge_count 1,2,3,4", "palg 2ps.vol 1,2"] {
            let (tampered, line) = tamper(&snap, "palg ", record);
            let err = restore_err(&g, Algorithm::Ginger, &cfg, &tampered);
            assert_eq!(err, SnapshotError::Malformed { line }, "{record}");
        }
        for record in [
            "we 0".to_string(),
            format!("assign {n} 0"),
            "assign 0 4".to_string(),
            "seq 201".to_string(),
            "seq 18446744073709551615".to_string(),
        ] {
            let prefix = if record.starts_with("seq") { "seq " } else { "assign " };
            let (tampered, line) = tamper(&snap, prefix, &record);
            let err = restore_err(&g, Algorithm::Ginger, &cfg, &tampered);
            assert_eq!(err, SnapshotError::Malformed { line }, "{record}");
        }
        // A vertex `seq` up to passes × n restores.
        let (at_most, _) = tamper(&snap, "seq ", &format!("seq {n}"));
        assert!(StreamingPartitioner::restore(&g, Algorithm::Ginger, &cfg, &at_most).is_ok());
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
        // Corruption: a deleted decision leaves `seq` counting one more
        // record than there is.
        let (corrupted, _) = tamper(&snap, "edge ", "");
        let corrupted = corrupted.replacen("\n\n", "\n", 1);
        let err = restore_err(&g, Algorithm::Hdrf, &cfg, &corrupted);
        assert_eq!(err, SnapshotError::Malformed { line: 7 });
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

    /// Takes `step`; a refused chunk leaves the machine as it was.
    fn take<'g>(sp: &mut StreamingPartitioner<'g>, step: &Step<'g>) -> Result<(), IngestError> {
        match step {
            Step::Vertices(chunk) => sp.ingest_vertices(chunk),
            Step::Edges(chunk) => sp.ingest_slotted_edges(chunk),
            Step::Flush => {
                sp.flush_window();
                Ok(())
            }
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
    /// rest of the run and seals; a panic or a hang fails the test. A
    /// document that names other slots than the run placed restores a
    /// machine that refuses, with [`IngestError::AlreadyPlaced`], the
    /// chunks placing them again; it takes the other steps.
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
                        for step in &steps[..cut] {
                            take(&mut sp, step).unwrap();
                        }
                        let text = sp.snapshot();
                        for (what, mutated) in mutations(&text) {
                            let at = format!("{alg} k={k} W={window} cut={cut}: {what}");
                            let run =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    match StreamingPartitioner::restore(&g, alg, &cfg, &mutated) {
                                        Ok(mut sp) => {
                                            for step in &steps[cut..] {
                                                match take(&mut sp, step) {
                                                    Ok(())
                                                    | Err(IngestError::AlreadyPlaced { .. }) => {}
                                                    Err(e) => panic!("{e}"),
                                                }
                                            }
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
