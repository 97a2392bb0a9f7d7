//! The benchmark's own tests: what it prints is what `BENCHMARK.json`
//! declares, traces add up, `--seed` changes the data and nothing
//! else, and `compare` catches a regression. Workload runs use the
//! `--smoke` shapes and go through the built binary, one process each,
//! because the trace collector is process-global.

use fcma_benchmark::compare::{self, Declared};
use fcma_benchmark::layers::{durations, SelfTimes};
use fcma_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use fcma_benchmark::{bench_dir, workloads};
use fcma_trace::json::{parse, Value};
use std::path::PathBuf;
use std::process::Command;

/// Run the binary; returns `(exit code, stdout)`.
fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fcma-benchmark"))
        .args(args)
        .env_remove("FCMA_THREADS")
        .output()
        .expect("run fcma-benchmark");
    (out.status.code().unwrap_or(-1), String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

/// `(name, unit)` of every metric on the result line, which must hold
/// exactly the contract's four keys and report a correct run.
fn result_metrics(stdout: &str) -> Vec<(String, String)> {
    let line = stdout.lines().last().expect("a result line");
    let Ok(Value::Object(result)) = parse(line) else { panic!("result line is not JSON: {line}") };
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result["correct"], Value::Bool(true), "{stdout}");
    assert_eq!(result["failed"], Value::Number(0.0));
    assert!(matches!(result["attempted"], Value::Number(n) if n >= 1.0 && n.fract() == 0.0));
    let Value::Object(metrics) = &result["metrics"] else { panic!("metrics is not an object") };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(matches!(m.get("value"), Some(Value::Number(v)) if v.is_finite()), "{name}");
            (name.clone(), m.get("unit").and_then(Value::as_str).expect("unit").to_owned())
        })
        .collect()
}

fn sorted(list: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<_> = list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
    v.sort();
    v
}

#[test]
fn benchmark_json_declares_exactly_what_spec_does() {
    let declared = Declared::load().expect("BENCHMARK.json parses");
    assert_eq!(declared.workloads, WORKLOADS);
    let e2e: Vec<(&str, &str)> =
        declared.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> =
        declared.per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect();
    assert_eq!(layers, PER_LAYER);
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name.len() <= 64, "{name}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
    }
    let setup = declared.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert!(setup.lower_is_better && setup.unit == "s");
    assert!(declared.end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= setup.bound));
}

#[test]
fn untraced_runs_print_the_declared_end_to_end_metrics() {
    for workload in WORKLOADS {
        let (code, stdout) = bench(&["--workload", workload, "--smoke", "--trace", "0"]);
        assert_eq!(code, 0, "{workload}: {stdout}");
        assert_eq!(result_metrics(&stdout), sorted(END_TO_END), "{workload}");
        // every metric is also printed by name with its unit and sample count
        for (name, unit) in END_TO_END {
            let row = stdout.lines().find(|l| l.starts_with(name)).expect(name);
            assert!(row.contains(unit) && row.contains("n="), "{row}");
        }
    }
}

#[test]
fn traced_runs_print_the_declared_layer_metrics_and_a_trace_that_adds_up() {
    for workload in WORKLOADS {
        let (code, stdout) = bench(&["--workload", workload, "--smoke", "--trace", "1"]);
        assert_eq!(code, 0, "{workload}: {stdout}");
        assert_eq!(result_metrics(&stdout), sorted(PER_LAYER), "{workload}");

        let path = bench_dir().join("out").join(format!("{workload}.trace.json"));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let report = fcma_trace::export::from_chrome_json(&text).expect("trace parses back");
        assert_eq!(report.check_consistency(), Vec::<String>::new(), "{workload}");
        assert_eq!(report.check_causality(), Vec::<String>::new(), "{workload}");
        let times = SelfTimes::of(&report);
        let (self_sum, root_sum) = times.totals(&report);
        assert!(root_sum > 0.0 && (self_sum - root_sum).abs() <= 0.05 * root_sum, "{workload}");
        assert!(times.by_layer(&report).contains_key("core"), "{workload}");
    }

    // A traced task: the stage spans under bench.harness.task_by_stage
    // account for the root's duration to within 5 %.
    let path = bench_dir().join("out").join("task-facescene.trace.json");
    let report = fcma_trace::export::from_chrome_json(&std::fs::read_to_string(path).unwrap())
        .expect("trace parses back");
    let roots: f64 = durations(&report, "bench.harness.task_by_stage").iter().sum();
    let stages: f64 = [
        "bench.core.corr_normalized_merged",
        "bench.svm.precompute_raw_with",
        "bench.svm.loso_cross_validate",
    ]
    .iter()
    .flat_map(|name| durations(&report, name))
    .sum();
    assert!(stages <= roots && stages >= 0.95 * roots, "stages {stages} s of {roots} s");
}

#[test]
fn seed_changes_the_generated_data_and_nothing_else() {
    for workload in WORKLOADS {
        let one = workloads::synth_config(workload, 1, true);
        let two = workloads::synth_config(workload, 2, true);
        assert_ne!(one.seed, two.seed, "{workload}");
        let same_but_seed = fcma_fmri::SynthConfig { seed: one.seed, ..two.clone() };
        assert_eq!(format!("{same_but_seed:?}"), format!("{one:?}"), "{workload}");
        let (a, _) = one.generate();
        let (again, _) = workloads::synth_config(workload, 1, true).generate();
        let (b, _) = two.generate();
        assert_eq!(a.data().as_slice(), again.data().as_slice(), "{workload}");
        assert_ne!(a.data().as_slice(), b.data().as_slice(), "{workload}");
        assert_eq!(a.epochs().len(), b.epochs().len(), "{workload}");
    }
}

/// A record file with one untraced sweep record and one traced one.
fn record_file(name: &str, voxels_per_s: f64, iterations: f64) -> PathBuf {
    let dir = bench_dir().join("out").join(format!("test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let text = format!(
        "{{\"workload\":\"sweep-cohort\",\"trace\":0,\"attempted\":10,\"failed\":0,\
         \"metrics\":{{\"voxels_per_s\":{{\"value\":{voxels_per_s},\"unit\":\"voxels/s\"}},\
         \"setup_s\":{{\"value\":0.5,\"unit\":\"s\"}}}}}}\n\
         {{\"workload\":\"sweep-cohort\",\"trace\":1,\"attempted\":5,\"failed\":0,\
         \"metrics\":{{\"svm.smo_iterations\":{{\"value\":{iterations},\"unit\":\"count\"}},\
         \"trace.overhead_frac\":{{\"value\":0.01,\"unit\":\"fraction\"}}}}}}\n"
    );
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn compare_passes_an_identical_pair_and_flags_a_doctored_regression() {
    let base = record_file("base.jsonl", 1000.0, 2688.5);
    let same = record_file("same.jsonl", 1000.0, 2688.5);
    let slower = record_file("slower.jsonl", 700.0, 2688.5);
    let faster = record_file("faster.jsonl", 1200.0, 2688.5);
    let other_count = record_file("count.jsonl", 1000.0, 2690.0);
    assert_eq!(compare::run(&base, &same), Ok(0));
    assert_eq!(compare::run(&base, &slower), Ok(1), "30 % fewer voxels/s is beyond the 25 % bound");
    assert_eq!(compare::run(&base, &faster), Ok(0), "a gain is not a regression");
    assert_eq!(compare::run(&base, &other_count), Ok(1), "an exact count moved");
    assert!(compare::run(&base, &base.with_extension("missing")).is_err());
    std::fs::remove_dir_all(base.parent().unwrap()).unwrap();
}

#[test]
fn misuse_exits_non_zero_without_a_result_line() {
    for args in [&["--workload", "no-such"][..], &["--workload", "sweep-cohort", "--trace", "2"]] {
        let (code, stdout) = bench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(!stdout.contains("\"metrics\""), "{stdout}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_fcma-benchmark"))
        .args(["--workload", "sweep-cohort", "--smoke"])
        .env("FCMA_THREADS", "2")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "FCMA_THREADS must be refused");
    assert!(out.stdout.is_empty());
}
