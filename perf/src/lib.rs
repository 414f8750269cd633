//! The repository's benchmark harness (see `perf/README.md`). The
//! `sgp-perf` binary is a thin command line over these modules; they are
//! a library so the tests under `tests/` can hold the metric tables
//! against `BENCHMARK.json`.

pub mod api;
pub mod facts;
pub mod json;
pub mod metrics;
pub mod run;
pub mod suite;
pub mod trace;
pub mod workloads;
