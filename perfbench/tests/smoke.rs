//! Smoke test: every workload of `BENCHMARK.json` at toy size (an 8-bit
//! bus, a 5-request stream), untraced and traced. Each run must pass its
//! correctness checks and report exactly the metrics `BENCHMARK.json`
//! lists for that mode, each with its listed unit.

use std::process::Command;
use vpec_trace::json::{parse, JsonValue};

fn array<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match v.get(key) {
        Some(JsonValue::Arr(items)) => items,
        _ => panic!("BENCHMARK.json: {key} must be an array"),
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string"))
}

#[test]
fn every_workload_passes_and_reports_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    for workload in array(&spec, "workloads") {
        let name = field(workload, "name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", name, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("the result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{name}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("{name}: metrics must be an object");
            };
            let wanted = array(&spec, list);
            assert_eq!(metrics.len(), wanted.len(), "{name} --trace {trace}");
            for m in wanted {
                let metric = field(m, "name");
                let got = result
                    .get("metrics")
                    .and_then(|ms| ms.get(metric))
                    .unwrap_or_else(|| panic!("{name} --trace {trace}: no {metric}"));
                assert_eq!(field(got, "unit"), field(m, "unit"), "{name}: {metric}");
                let value = got.get("value").and_then(JsonValue::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {metric}");
                if list == "end_to_end" {
                    assert!(value > Some(0.0), "{name}: {metric} must not be 0");
                }
            }
        }
    }
}
