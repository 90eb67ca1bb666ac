//! `BENCHMARK.json` and the binary must agree on every workload and
//! metric: a metric printed but not declared (or declared but never
//! printed) would be refused before a single run.

use greengpu_sim::JsonValue;
use perfbench::bench::Workload;
use perfbench::report::{per_layer, END_TO_END};

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn pairs(list: &JsonValue) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_are_the_printed_metrics() {
    let b = benchmark();
    let declared = pairs(b.get("end_to_end").expect("end_to_end"));
    let printed: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared, printed);
    let declared = pairs(b.get("per_layer").expect("per_layer"));
    let printed: Vec<(String, String)> = per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(declared, printed);
}

/// Every declared workload is runnable, in the binary's order. The binary
/// also runs `fleet_loaded`, which `BENCHMARK.json` leaves out to keep
/// its runs within their time limit.
#[test]
fn declared_workloads_are_runnable() {
    let b = benchmark();
    let declared: Vec<&str> = b
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let runnable: Vec<&str> = Workload::ALL
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| declared.contains(n))
        .collect();
    assert_eq!(declared, runnable);
}

#[test]
fn a_result_line_is_valid_json() {
    let r = perfbench::report::Report {
        attempted: 2,
        failed: 0,
        values: [("run_s".to_string(), 0.1 + 0.2)].into_iter().collect(),
    };
    for traced in [false, true] {
        let parsed = JsonValue::parse(&r.to_json(traced)).expect("result line parses");
        assert_eq!(parsed.get("correct").and_then(JsonValue::as_bool), Some(true));
    }
}
