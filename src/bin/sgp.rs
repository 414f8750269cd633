//! `sgp` — command-line front end for the streaming-graph-partitioning
//! library.
//!
//! ```text
//! sgp stats <input>
//! sgp partition --alg HDRF --k 8 [--order natural|random|bfs|dfs] [--out FILE] <input>
//! sgp recommend [--online] <input>
//! sgp scaleout [--workload pagerank|wcc|sssp] [--candidates 4,8,16,...] <input>
//! sgp trace-summary [--top N] <trace.json>
//! ```
//!
//! `<input>` is either a whitespace edge-list file or a named synthetic
//! dataset: `dataset:twitter`, `dataset:ukweb`, `dataset:usaroad`,
//! `dataset:ldbcsnb` (scale via `SGP_SCALE`).
//!
//! Every command takes exactly one `<input>` and only the flags and
//! switches shown for it; anything else is a usage error (exit 2) that
//! names the argument. A report that cannot be written (a closed pipe, a
//! full disk) is an error (exit 1), not a panic.
//!
//! `trace-summary` renders a dump of `experiments --trace <path>`: the
//! top `N` spans by self cost (default 10), the per-machine load, the
//! counter totals and the histogram quantiles. Exit codes: `0` rendered,
//! `1` invalid trace document, `2` usage error or unreadable file.

use std::io::Write;
use streaming_graph_partitioning::core::report::trace_summary;
use streaming_graph_partitioning::core::runners::OfflineWorkload;
use streaming_graph_partitioning::core::scaleout::recommend_scale_out;
use streaming_graph_partitioning::prelude::*;
use streaming_graph_partitioning::trace::parse_trace;

fn usage() -> ! {
    eprintln!(
        "usage:\n  sgp stats <input>\n  sgp partition --alg <NAME> --k <K> [--order natural|random|bfs|dfs] [--out FILE] <input>\n  sgp recommend [--online] <input>\n  sgp scaleout [--workload pagerank|wcc|sssp] [--candidates 4,8,16] <input>\n  sgp trace-summary [--top N] <trace.json>\n\ninputs: an edge-list file, or dataset:twitter|ukweb|usaroad|ldbcsnb"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn load_graph(input: &str) -> Graph {
    if let Some(name) = input.strip_prefix("dataset:") {
        let dataset = match name.to_ascii_lowercase().as_str() {
            "twitter" => Dataset::Twitter,
            "ukweb" | "uk2007" | "uk2007-05" => Dataset::UkWeb,
            "usaroad" | "usa-road" | "road" => Dataset::UsaRoad,
            "ldbcsnb" | "snb" | "ldbc-snb" => Dataset::LdbcSnb,
            other => fail(&format!("unknown dataset '{other}'")),
        };
        dataset.generate(Scale::from_env())
    } else {
        match streaming_graph_partitioning::graph::io::read_edge_list_file(input) {
            Ok(g) => g,
            Err(e) => fail(&format!("cannot read {input}: {e}")),
        }
    }
}

fn parse_order(s: &str) -> StreamOrder {
    match s.to_ascii_lowercase().as_str() {
        "natural" => StreamOrder::Natural,
        "random" => StreamOrder::default(),
        "bfs" => StreamOrder::Bfs,
        "dfs" => StreamOrder::Dfs,
        other => fail(&format!("unknown stream order '{other}'")),
    }
}

/// The value-taking flags and the switches `command` accepts; `None`
/// for an unknown command.
fn accepted(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match command {
        "stats" => (&[], &[]),
        "partition" => (&["alg", "k", "order", "out"], &[]),
        "recommend" => (&[], &["online"]),
        "scaleout" => (&["workload", "candidates"], &[]),
        "trace-summary" => (&["top"], &[]),
        _ => return None,
    })
}

struct Args {
    input: String,
    // BTreeMap keeps diagnostics that iterate flags deterministic.
    flags: std::collections::BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Parses `command`'s arguments: one positional input plus the flags and
/// switches it accepts. Anything else is a usage error naming it.
fn parse_args(command: &str, args: &[String]) -> Args {
    let Some((flag_names, switch_names)) = accepted(command) else { usage() };
    let unexpected = |arg: &str| -> ! {
        eprintln!("error: unexpected {command} argument `{arg}`");
        usage()
    };
    let mut input = None;
    let mut flags = std::collections::BTreeMap::new();
    let mut switches = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.strip_prefix("--") {
            Some(name) if flag_names.contains(&name) => {
                let Some(v) = rest.next() else {
                    eprintln!("error: --{name} needs a value");
                    usage()
                };
                flags.insert(name.to_string(), v.clone());
            }
            Some(name) if switch_names.contains(&name) => switches.push(name.to_string()),
            Some(_) => unexpected(a),
            None if input.is_none() => input = Some(a.clone()),
            None => unexpected(a),
        }
    }
    let Some(input) = input else { usage() };
    Args { input, flags, switches }
}

/// Writes a command's report to stdout; a write that fails (a closed
/// pipe, a full disk) is an error message and exit 1, not a panic.
fn emit(report: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
    let mut out = std::io::stdout().lock();
    report(&mut out)
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| fail(&format!("cannot write output: {e}")));
}

fn write_partition(
    out: &mut dyn Write,
    g: &Graph,
    p: &streaming_graph_partitioning::partition::Partitioning,
    k: usize,
) -> std::io::Result<()> {
    match &p.vertex_owner {
        Some(owner) => {
            writeln!(out, "# vertex partition ({} vertices, k={k})", owner.len())?;
            for (v, part) in owner.iter().enumerate() {
                writeln!(out, "{v} {part}")?;
            }
        }
        None => {
            writeln!(out, "# edge partition ({} edges, k={k})", p.edge_parts.len())?;
            for (e, part) in g.edges().zip(&p.edge_parts) {
                writeln!(out, "{} {} {part}", e.src, e.dst)?;
            }
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let command = argv[0].as_str();
    let args = parse_args(command, &argv[1..]);
    let input = args.input;

    match command {
        "stats" => {
            let g = load_graph(&input);
            let s = streaming_graph_partitioning::graph::GraphStats::of(&g);
            emit(|out| {
                writeln!(out, "vertices        {}", s.vertices)?;
                writeln!(out, "edges           {}", s.edges)?;
                writeln!(out, "avg degree      {:.2}", s.avg_degree)?;
                writeln!(out, "max degree      {}", s.max_degree)?;
                writeln!(out, "degree gini     {:.3}", s.degree_gini)?;
                writeln!(out, "power-law R^2   {:.3}", s.powerlaw_fit_r2)?;
                writeln!(out, "class           {}", s.classify())
            });
        }
        "partition" => {
            let g = load_graph(&input);
            let alg_name = args.flags.get("alg").map(String::as_str).unwrap_or("HDRF");
            let alg = Algorithm::from_short_name(alg_name)
                .unwrap_or_else(|| fail(&format!("unknown algorithm '{alg_name}'")));
            let k: usize = args
                .flags
                .get("k")
                .map(|v| v.parse().unwrap_or_else(|_| fail("--k must be an integer")))
                .unwrap_or(8);
            let order = args.flags.get("order").map(|s| parse_order(s)).unwrap_or_default();
            let cfg = PartitionerConfig::new(k);
            #[expect(
                clippy::disallowed_types,
                clippy::disallowed_methods,
                reason = "partition time is an explicitly host-dependent measurement, printed beside the quality columns"
            )]
            let start = std::time::Instant::now();
            let p = partition(&g, alg, &cfg, order);
            let elapsed = start.elapsed();
            let q =
                streaming_graph_partitioning::partition::metrics::QualityReport::measure(&g, &p);
            eprintln!(
                "{alg} k={k}: RF={:.3}{} edge-imbalance={:.3} in {:.2?}",
                q.replication_factor,
                q.edge_cut_ratio.map(|e| format!(" ECR={e:.3}")).unwrap_or_default(),
                q.edge_imbalance,
                elapsed
            );
            let mut out: Box<dyn Write> = match args.flags.get("out") {
                Some(path) => Box::new(
                    std::fs::File::create(path)
                        .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}"))),
                ),
                None => Box::new(std::io::stdout().lock()),
            };
            // Surface ENOSPC/EPIPE as a clean error instead of a panic.
            write_partition(&mut out, &g, &p, k)
                .unwrap_or_else(|e| fail(&format!("cannot write partition: {e}")));
        }
        "recommend" => {
            let g = load_graph(&input);
            let rec = if args.switches.iter().any(|s| s == "online") {
                recommend(WorkloadClass::OnlineQueries, None, Some(OnlineObjective::TailLatency))
            } else {
                streaming_graph_partitioning::core::decision::recommend_for_graph(
                    &g,
                    WorkloadClass::OfflineAnalytics,
                )
            };
            emit(|out| {
                writeln!(out, "recommended algorithm: {}", rec.algorithm)?;
                for step in &rec.reasoning {
                    writeln!(out, "  - {step}")?;
                }
                Ok(())
            });
        }
        "scaleout" => {
            let g = load_graph(&input);
            let workload = match args
                .flags
                .get("workload")
                .map(String::as_str)
                .unwrap_or("pagerank")
                .to_ascii_lowercase()
                .as_str()
            {
                "pagerank" | "pr" => OfflineWorkload::PageRank,
                "wcc" => OfflineWorkload::Wcc,
                "sssp" => OfflineWorkload::Sssp,
                other => fail(&format!("unknown workload '{other}'")),
            };
            let candidates: Vec<usize> = args
                .flags
                .get("candidates")
                .map(String::as_str)
                .unwrap_or("4,8,16,32")
                .split(',')
                .map(|s| s.trim().parse().unwrap_or_else(|_| fail("bad --candidates list")))
                .collect();
            let report = recommend_scale_out(&g, workload, &candidates, 0.1);
            emit(|out| {
                writeln!(out, "partitioner: {} (decision tree)", report.algorithm)?;
                writeln!(
                    out,
                    "{:<6} {:>12} {:>14} {:>12}",
                    "k", "exec (s)", "network", "comm/comp"
                )?;
                for p in &report.points {
                    writeln!(
                        out,
                        "{:<6} {:>12.4} {:>14} {:>12.3}",
                        p.k,
                        p.exec_seconds,
                        streaming_graph_partitioning::core::report::human_bytes(p.network_bytes),
                        p.comm_to_comp
                    )?;
                }
                writeln!(out, "recommended scale-out factor: k = {}", report.recommended_k)
            });
        }
        "trace-summary" => {
            let top = match args.flags.get("top").map(|v| v.parse::<usize>()) {
                None => 10,
                Some(Ok(n)) if n > 0 => n,
                Some(_) => {
                    eprintln!("error: --top requires a positive integer");
                    usage()
                }
            };
            let text = std::fs::read_to_string(&input).unwrap_or_else(|e| {
                eprintln!("error: cannot read {input}: {e}");
                std::process::exit(2)
            });
            let trace = parse_trace(&text)
                .unwrap_or_else(|e| fail(&format!("{input} is not a valid trace document: {e}")));
            emit(|out| {
                write!(
                    out,
                    "trace summary (schema_version {}, {} events)\n{}",
                    trace.schema_version,
                    trace.events.len(),
                    trace_summary(&SummarySink::of(&trace), top)
                )
            });
        }
        _ => usage(),
    }
}
