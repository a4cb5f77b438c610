//! Quick self-test: every workload at reduced sizes, untraced and traced.
//! The last line of standard output must be the result object, and its
//! metrics must be exactly the ones `BENCHMARK.json` declares, with the
//! declared units.

use dta_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn declared(kind: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = dta_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code().unwrap_or(-1), stdout)
}

fn check_result(workload: &str, seed: &str, trace: &str) {
    let (code, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--quick",
    ]);
    assert_eq!(code, 0, "{workload} seed {seed} trace {trace}:\n{stdout}");
    let last = stdout.lines().last().expect("some output");
    let result = dta_json::parse(last).expect("last line is JSON");
    let Json::Obj(pairs) = &result else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);

    let kind = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object")
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(got, declared(kind), "{workload} trace {trace}: metric set");
    if trace == "0" {
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
        }
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for workload in ["paper", "paper-memo", "gather-wide", "serve-replay"] {
        check_result(workload, "0", "0");
        check_result(workload, "11", "1");
    }
    let trace = repo_root().join(".perfbench_out/serve-replay-seed11-trace1.trace.json");
    let doc = dta_json::parse(&std::fs::read_to_string(trace).expect("trace written"))
        .expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("job.decode")));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "paper", "--seed", "1", "--seconds", "1"][..],
    ] {
        let (code, stdout) = run(args);
        assert_eq!(code, 2);
        assert!(stdout.is_empty());
    }
}
