//! Tiny-size self-check of the benchmark: every workload `BENCHMARK.json`
//! lists is one the benchmark runs, every metric it names is printed with
//! its unit, the output checks pass, and a deliberately corrupted row or
//! response is caught and counted.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use adhls_core::json::Value;
use perfbench::{run, Config, Outcome, Workload};
use std::path::PathBuf;

/// Every workload the benchmark runs, including the by-hand `table4`.
const WORKLOADS: [Workload; 3] = [Workload::Table4, Workload::Fleet, Workload::ServeMix];

fn config(workload: Workload, trace: bool, inject_fault: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: if workload == Workload::ServeMix {
            1.0
        } else {
            0.2
        },
        trace,
        tiny: true,
        inject_fault,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selfcheck"),
    }
}

/// `(name, second)` of every entry listed under `key` in `BENCHMARK.json`.
fn declared_pairs(key: &str, second: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field(second))
        })
        .collect()
}

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    declared_pairs(key, "unit")
}

/// `(name, unit)` of every metric in a result line, in order.
fn printed(out: &Outcome) -> Vec<(String, String)> {
    let doc = Value::parse(&out.result_json()).expect("the result line is JSON");
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        panic!("result line has no metrics object");
    };
    metrics
        .iter()
        .map(|(name, v)| {
            assert!(
                v.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no numeric value"
            );
            let unit = v.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_declared_workload_is_one_the_benchmark_runs() {
    for (name, _) in declared_pairs("workloads", "why") {
        let w = Workload::parse(&name).unwrap_or_else(|| panic!("{name} is not runnable"));
        assert!(WORKLOADS.contains(&w), "{name} is not self-checked");
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit_and_checks_pass() {
    for w in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(&config(w, trace, false));
            assert!(
                out.correct && out.failed == 0 && out.attempted > 0,
                "{} trace={trace}: checks failed: {:?}",
                w.name(),
                out.failures
            );
            assert_eq!(printed(&out), declared(key), "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn a_corrupted_row_is_caught_and_counted() {
    for w in [Workload::Table4, Workload::Fleet] {
        let out = run(&config(w, false, true));
        assert!(!out.correct, "{}: corruption went unnoticed", w.name());
        assert!(
            out.failed >= 1 && out.failed <= out.attempted,
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_corrupted_response_is_caught_and_counted() {
    let out = run(&config(Workload::ServeMix, false, true));
    assert!(!out.correct, "corruption went unnoticed");
    assert_eq!(out.failed, 1, "{:?}", out.failures);
}
