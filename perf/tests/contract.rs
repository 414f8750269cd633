//! `BENCHMARK.json` and the harness must describe the same benchmark.

use sgp_perf::json::{parse, Json};
use sgp_perf::metrics::{MetricDef, END_TO_END, PER_LAYER};
use sgp_perf::workloads;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("string member {key}"))
}

fn assert_same_metrics(section: &str, declared: &[Json], table: &[MetricDef]) {
    let declared: Vec<_> = declared
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    let table: Vec<_> = table.iter().map(|m| (m.name, m.unit, m.better.as_str())).collect();
    assert_eq!(declared, table, "{section} differs from perf/src/metrics.rs");
}

#[test]
fn metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    let section = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
    assert_same_metrics("end_to_end", &section("end_to_end"), END_TO_END);
    assert_same_metrics("per_layer", &section("per_layer"), PER_LAYER);
}

#[test]
fn workloads_match_benchmark_json_and_all_construct() {
    let doc = benchmark_json();
    let declared: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(declared, workloads::NAMES);
    for name in workloads::NAMES {
        let w = workloads::by_name(name).unwrap_or_else(|| panic!("{name} constructs"));
        assert_eq!(w.name(), *name);
        assert!(!w.inputs().is_empty());
    }
    assert!(workloads::by_name("no-such-workload").is_none());
}

#[test]
fn benchmark_json_is_inside_the_contract_limits() {
    let doc = benchmark_json();
    let keys: Vec<&str> =
        doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    for w in doc.get("workloads").and_then(Json::as_array).expect("workloads") {
        let why = str_of(w, "why");
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }
    let bounds: Vec<(&str, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| (str_of(m, "name"), m.get("bound").and_then(Json::as_f64).expect("bound")))
        .collect();
    assert!(bounds.iter().all(|&(_, b)| b > 0.0 && b <= 0.25));
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").expect("setup_s is declared").1;
    assert!(bounds.iter().all(|&(_, b)| b <= setup), "setup_s has the largest bound");
}
