//! The four workloads. Each has an untraced run (`run_e2e`: closed
//! loop for `--seconds`, end-to-end metrics) and a traced run
//! (`run_traced`: fixed rep counts under one collector, per-layer
//! metrics).

pub mod online;
pub mod sweep;
pub mod task;

use crate::host::{Host, Probes};
use crate::layers::call;
use crate::run::{Env, Outcome};
use fcma_core::{OptimizedExecutor, TaskContext};
use fcma_sim::{CacheConfig, MachineConfig};
use fcma_sync::pool::Pool;
use fcma_trace::TraceReport;
use std::path::Path;

/// From files on disk to a context ready for tasks.
fn start_up(stem: &Path) -> TaskContext {
    let dataset = call("bench.fmri.load_dataset", || fcma_fmri::io::load_dataset(stem))
        .0
        .expect("load the dataset the set-up saved");
    call("bench.core.context_full", || TaskContext::full(&dataset)).0
}

/// The optimized executor with an explicit kernel pool (never
/// `Pool::from_env`).
fn executor(threads: usize) -> OptimizedExecutor {
    OptimizedExecutor { pool: Pool::new(threads), ..Default::default() }
}

/// Run the workload named in `env.params`.
///
/// # Panics
/// If the name is not one of [`crate::spec::WORKLOADS`] (the command
/// line is validated before this is called).
pub fn run(env: &Env<'_>) -> Outcome {
    let mut out = Outcome::default();
    let (name, smoke, traced) = (env.params.workload.as_str(), env.params.smoke, env.params.traced);
    match name {
        "task-facescene" | "task-attention" => {
            let shape = task::shape(name, smoke);
            if traced {
                task::run_traced(env, &shape, &mut out);
            } else {
                task::run_e2e(env, &shape, &mut out);
            }
        }
        "sweep-cohort" => {
            let shape = sweep::shape(smoke);
            if traced {
                sweep::run_traced(env, &shape, &mut out);
            } else {
                sweep::run_e2e(env, &shape, &mut out);
            }
        }
        "online-session" => {
            let shape = online::shape(smoke);
            if traced {
                online::run_traced(env, &shape, &mut out);
            } else {
                online::run_e2e(env, &shape, &mut out);
            }
        }
        other => panic!("unknown workload {other}"),
    }
    if let Some(report) = &out.report {
        check_trace(report, &mut out.checks, &mut out.metrics);
    }
    if let Some(probes) = &out.probes {
        out.metrics.set("host.peak_gflops", probes.peak_gflops, 3);
        out.metrics.set("host.triad_gbs", probes.triad_gbs, 5);
        out.metrics.set("host.nproc", env.host.nproc as f64, 1);
    }
    out
}

/// The generator configuration `workload` gives `SynthConfig::generate`
/// for `seed` (for `online-session`, its first timed session).
///
/// # Panics
/// If the name is not one of [`crate::spec::WORKLOADS`].
pub fn synth_config(workload: &str, seed: u64, smoke: bool) -> fcma_fmri::SynthConfig {
    match workload {
        "task-facescene" | "task-attention" => task::shape(workload, smoke).synth(seed),
        "sweep-cohort" => sweep::shape(smoke).synth(seed),
        "online-session" => online::shape(smoke).synth(seed, 1),
        other => panic!("unknown workload {other}"),
    }
}

/// Checks and metrics every traced run shares: the report is
/// consistent and causal, and the bench spans' self times add up.
fn check_trace(
    report: &TraceReport,
    checks: &mut crate::run::Checks,
    metrics: &mut crate::spec::Metrics,
) {
    let findings = report.check_consistency();
    checks.check(findings.is_empty(), || format!("trace consistency: {}", findings.join("; ")));
    let self_times = crate::layers::SelfTimes::of(report);
    let (self_sum, root_sum) = self_times.totals(report);
    checks.check((self_sum - root_sum).abs() <= 0.05 * root_sum, || {
        format!("bench self times sum to {self_sum:.4} s, root spans to {root_sum:.4} s")
    });
    metrics.set("trace.spans_recorded", report.spans.len() as f64, 1);
}

/// `trace.overhead_frac`: the median ratio of a traced call's wall to
/// that of the untraced call of the same work just before it, minus 1.
/// Neighbours in time, because the host has slow spells that last
/// seconds; with three to five pairs the figure still carries about
/// +-3 % of the host's noise.
fn trace_overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    let ratios: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t / u).collect();
    crate::stats::median(&ratios) - 1.0
}

/// An `fcma-sim` machine model of this host, built from the probes:
/// one core at the reported clock, as many vector lanes as the measured
/// multiply-add peak implies, misses served at the triad bandwidth.
fn host_machine(host: &Host, probes: &Probes) -> MachineConfig {
    let clock_ghz = if host.cpu_mhz > 0.0 { host.cpu_mhz / 1e3 } else { 2.0 };
    let lanes = (probes.peak_gflops / (2.0 * clock_ghz)).round().max(1.0) as usize;
    let l2 = if host.l2_bytes > 0 { host.l2_bytes } else { 1 << 20 };
    MachineConfig {
        name: "host",
        cores: 1,
        threads_per_core: 1,
        clock_ghz,
        vpu_lanes: lanes,
        l2_per_core: CacheConfig { size_bytes: l2, line_bytes: 64, associativity: 1 },
        l2_miss_latency_ns: 64.0 / probes.triad_gbs,
        peak_sp_gflops: probes.peak_gflops,
        ipc_per_thread: 1.0,
        usable_memory_bytes: host.mem_total_bytes,
    }
}
