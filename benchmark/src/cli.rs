//! Command line: one workload run, or `compare A B`.

use crate::host::Host;
use crate::run::{Env, Params};
use crate::spec::WORKLOADS;
use crate::{bench_dir, compare, repo_root, report, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: fcma-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                      [--smoke] [--record FILE]
       fcma-benchmark compare A B

workloads: task-facescene task-attention sweep-cohort online-session
--seed     data seed (default 1; 2 is the hold-out claims must also hold on)
--seconds  length of the untraced measuring loop (default: run_seconds of BENCHMARK.json)
--trace    0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics
--smoke    the same code paths at tiny shapes
--record   append this run's full record (host block, counts, metrics) to FILE
compare    two record files; exit 1 if B is worse than A beyond a bound";

/// What `--record` and the run need from the command line.
struct RunArgs {
    params: Params,
    record: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut params = Params {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        traced: false,
        smoke: false,
        out_dir: bench_dir().join("out"),
    };
    let mut seconds = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => params.workload = value()?.clone(),
            "--seed" => params.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {s} is not a length of time"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                params.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--smoke" => params.smoke = true,
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&params.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    params.seconds = match seconds {
        Some(s) => s,
        None if params.smoke => 0.5,
        None => compare::Declared::load()?.run_seconds,
    };
    Ok(RunArgs { params, record })
}

pub fn main(args: Vec<String>) -> ExitCode {
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => usage("compare takes two record files"),
        };
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return usage("");
    }
    let run = match parse_run(&args) {
        Ok(run) => run,
        Err(e) => return usage(&e),
    };
    // `ClusterConfig::default` and `Pool::from_env` read FCMA_THREADS;
    // every pool here is sized explicitly, and a stray setting must not
    // change what a configuration means.
    if std::env::var_os("FCMA_THREADS").is_some() {
        eprintln!("error: FCMA_THREADS is set; unset it (the benchmark sizes every pool itself)");
        return ExitCode::from(2);
    }
    let host = Host::describe(&repo_root());
    let env = Env { params: &run.params, host: &host };
    let outcome = workloads::run(&env);
    match report::emit(&env, &outcome, run.record.as_deref()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(error: &str) -> ExitCode {
    if error.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {error}\n{USAGE}");
    ExitCode::from(2)
}
