//! # sgp-bench
//!
//! Experiment harness for the SGP reproduction: the **`experiments`
//! binary** (`cargo run --release -p sgp-bench --bin experiments --
//! <id>`) regenerates the rows/series of every table and figure in the
//! paper (`table1`..`table5`, `fig1`..`fig15`, `all`), plus the opt-in
//! suites excluded from `all` — `robustness`, `trace`, `loaders`,
//! `elastic`, `churn` and the parameter `ablations`. One table,
//! [`experiments::EXPERIMENTS`], lists every id with whether `all`
//! runs it and the function that returns its report.
//!
//! Apart from the binary's `completed in` footers nothing here is
//! timed: throughput, latency and memory are measured by the
//! repository's benchmark (`perf/`, `BENCHMARK.json`).
//!
//! Experiment scale is controlled by the `SGP_SCALE` environment
//! variable (`tiny` | `small` | `default` | `large`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
