//! `sweep-cohort`: the whole program around the task. A small cohort
//! (6 subjects x 12 epochs) is swept in 32 small tasks, so dispatch,
//! per-task overhead and pool granularity sit on the critical path.
//! Each rep is load -> context -> `run_cluster_with` -> `select_top_k`
//! -> planted-ROI check. The two parallel configurations use the same
//! cores through different layers: 2 workers x 1 kernel thread goes
//! across tasks (`fcma-cluster`), 1 x 2 goes inside a task
//! (`fcma-sync::pool`), so a gain for one that costs the other shows.

use crate::host::{peak_rss_mb, run_probes};
use crate::layers::{call, call_tagged, durations, durations_where};
use crate::run::{score_bits, Checks, Env, Outcome, TempDir};
use crate::stats::{lower_decile, median, mix, repeat_for, time};
use crate::workloads::{executor, start_up, trace_overhead};
use fcma_cluster::{run_cluster_with, ClusterConfig, ClusterRun};
use fcma_core::{recovery_rate, select_top_k};
use fcma_fmri::io::save_dataset;
use fcma_fmri::{presets, SynthConfig};
use fcma_trace::AttrValue;
use std::path::Path;
use std::sync::Arc;

/// Tasks per sweep, whatever N is.
const TASKS: usize = 32;
/// Pairs of (2 x 1, 1 x 2) reps the untraced loop never goes below.
const MIN_PAIRS: usize = 4;
const SETUP_REPS: usize = 8;
/// Traced reps of each of the three configurations.
const LAYER_REPS: usize = 3;
/// Share of the planted voxels `select_top_k` must recover. The cohort
/// is small (72 epochs), so the signal is planted strongly enough that
/// every seed tried recovers all of them; the floor leaves margin.
const ROI_FLOOR: f64 = 0.8;

pub struct SweepShape {
    synth: SynthConfig,
}

pub fn shape(smoke: bool) -> SweepShape {
    let mut synth = presets::face_scene_scaled(if smoke { 256 } else { 1024 });
    synth.n_subjects = 6;
    synth.n_informative = 16;
    synth.coupling = 1.5;
    SweepShape { synth }
}

impl SweepShape {
    pub fn synth(&self, seed: u64) -> SynthConfig {
        SynthConfig { seed: mix(seed, self.synth.seed), ..self.synth.clone() }
    }

    fn note(&self, out: &mut Outcome) {
        out.note("n_voxels", self.synth.n_voxels);
        out.note("n_epochs", self.synth.n_epochs());
        out.note("tasks", TASKS);
        out.note("n_informative", self.synth.n_informative);
    }
}

/// Synthesise and save the cohort; returns the planted voxels.
fn set_up(cfg: &SynthConfig, stem: &Path) -> Vec<usize> {
    let (dataset, truth) = cfg.generate();
    save_dataset(stem, &dataset).expect("save synthetic dataset");
    truth.informative
}

/// One whole sweep, files to selected ROI.
struct Rep {
    wall: f64,
    startup: f64,
    run: ClusterRun,
    recovery: f64,
}

fn sweep(stem: &Path, planted: &[usize], workers: usize, threads: usize) -> Rep {
    let tags = vec![("workers", AttrValue::from(workers)), ("threads", AttrValue::from(threads))];
    let (mut rep, wall) = call_tagged("bench.harness.sweep_rep", tags.clone(), || {
        let (ctx, startup) = time(|| start_up(stem));
        let mut cfg = ClusterConfig::new(workers, ctx.n_voxels() / TASKS);
        cfg.kernel_threads = threads;
        let exec = Arc::new(executor(threads));
        let run = call_tagged("bench.cluster.run_cluster_with", tags, || {
            run_cluster_with(&ctx, exec, &cfg)
        })
        .0
        .expect("a fault-free sweep completes");
        let selected =
            call("bench.core.select_top_k", || select_top_k(&run.scores, planted.len())).0;
        Rep { wall: 0.0, startup, recovery: recovery_rate(&selected, planted), run }
    });
    rep.wall = wall;
    rep
}

/// Checks on one sweep's outputs against the serial reference.
fn check(checks: &mut Checks, what: &str, rep: &Rep, reference: &[(usize, u64)]) {
    checks.check(score_bits(&rep.run.scores) == reference, || {
        format!("{what}: scores differ from the 1 x 1 sweep (§15 bit identity)")
    });
    checks.accuracies(what, rep.run.scores.iter().map(|s| s.accuracy));
    checks.check(rep.recovery >= ROI_FLOOR, || {
        format!("{what}: roi_recovery {} below the floor {ROI_FLOOR}", rep.recovery)
    });
    let clean = rep.run.task_stats.len() == TASKS
        && rep.run.task_stats.iter().all(|t| t.attempts == 1)
        && rep.run.failed_workers.is_empty()
        && rep.run.requeued_tasks == 0;
    checks.check(clean, || format!("{what}: not every task ran exactly once"));
}

fn task_walls_ms(rep: &Rep) -> impl Iterator<Item = f64> + '_ {
    rep.run.task_stats.iter().map(|t| t.wall.as_secs_f64() * 1e3)
}

pub fn run_e2e(env: &Env<'_>, shape: &SweepShape, out: &mut Outcome) {
    let tmp = TempDir::new(env.params);
    let stem = tmp.path().join("ds");
    let cfg = shape.synth(env.params.seed);
    shape.note(out);
    let par = env.parallel();

    let mut planted = Vec::new();
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let (p, secs) = time(|| set_up(&cfg, &stem));
            planted = p;
            secs
        })
        .collect();

    // The warm-up rep is the serial baseline; its scores are the
    // reference the parallel configurations must match bit for bit.
    let serial = sweep(&stem, &planted, 1, 1);
    let reference = score_bits(&serial.run.scores);
    check(&mut out.checks, "1 x 1", &serial, &reference);

    let (mut across, mut inside, mut peak_rss) = (Vec::new(), Vec::new(), None);
    let min_pairs = if env.params.smoke { 2 } else { MIN_PAIRS };
    repeat_for(env.params.seconds, min_pairs, |_| {
        let rep = sweep(&stem, &planted, par, 1);
        check(&mut out.checks, "workers x 1", &rep, &reference);
        across.push(rep);
        let rep = sweep(&stem, &planted, 1, par);
        check(&mut out.checks, "1 x threads", &rep, &reference);
        inside.push(rep);
        peak_rss.get_or_insert_with(peak_rss_mb);
    });

    let n = cfg.n_voxels as f64;
    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall).collect::<Vec<_>>();
    let startup: Vec<f64> = across.iter().chain(&inside).map(|r| r.startup).collect();
    // one sample per sweep: the median wall of its 32 tasks
    let responses: Vec<f64> =
        across.iter().map(|r| median(&task_walls_ms(r).collect::<Vec<_>>())).collect();
    let m = &mut out.metrics;
    m.set("setup_s", lower_decile(&setup), setup.len());
    m.set("startup_s", lower_decile(&startup), startup.len());
    m.set("voxels_per_s", n / lower_decile(&walls(&across)), across.len());
    m.set("voxels_per_s_pooled", n / lower_decile(&walls(&inside)), inside.len());
    m.set("response_ms", lower_decile(&responses), responses.len());
    m.set("peak_rss_mb", peak_rss.expect("the loop ran"), 1);
    out.note("parallel", par);
    out.note("roi_recovery", serial.recovery);
}

pub fn run_traced(env: &Env<'_>, shape: &SweepShape, out: &mut Outcome) {
    let tmp = TempDir::new(env.params);
    let stem = tmp.path().join("ds");
    let cfg = shape.synth(env.params.seed);
    shape.note(out);
    let par = env.parallel();
    let planted = set_up(&cfg, &stem);
    out.probes = Some(run_probes(env.host));

    // In each round an untraced 2 x 1 sweep, the collector uninstalled,
    // sits next to the traced one, before it and after it in turn, so
    // trace.overhead_frac compares neighbours in time and the second of
    // a pair being the warmer cancels (the first sweep of all is a
    // discarded warm-up).
    drop(sweep(&stem, &planted, par, 1));
    let collector = fcma_trace::Collector::new();
    let configs = [(par, 1), (1, par), (1, 1)];
    let mut reps: Vec<Vec<Rep>> = configs.iter().map(|_| Vec::new()).collect();
    let mut untraced = Vec::new();
    for round in 0..LAYER_REPS {
        let traced_first = round % 2 == 1;
        for (i, &(w, t)) in configs.iter().enumerate() {
            if i == usize::from(traced_first) {
                untraced.push(sweep(&stem, &planted, par, 1).wall);
            }
            let _scope = collector.install_scoped();
            reps[i].push(sweep(&stem, &planted, w, t));
        }
    }
    let report = collector.drain();

    let reference = score_bits(&reps[2][0].run.scores);
    for (slot, (w, t)) in reps.iter().zip(configs) {
        for rep in slot {
            check(&mut out.checks, &format!("{w} x {t}"), rep, &reference);
        }
    }
    let runs = (configs.len() * LAYER_REPS) as u64;
    let dispatched = report.counter("cluster.tasks.dispatched");
    out.checks.check(dispatched == runs * TASKS as u64, || {
        format!("cluster.tasks.dispatched {dispatched} over {runs} sweeps of {TASKS} tasks")
    });
    let iterations = report.counter("svm.smo.iterations");
    out.checks.check(iterations.is_multiple_of(runs), || {
        format!("svm.smo.iterations {iterations} is not the same in each of {runs} sweeps")
    });

    let run_wall = |w: usize, t: usize| {
        median(&durations_where(
            &report,
            "bench.cluster.run_cluster_with",
            &[("workers", w), ("threads", t)],
        ))
    };
    let (t11, t21, t12) = (run_wall(1, 1), run_wall(par, 1), run_wall(1, par));
    let across = &reps[0];
    // Per 2 x 1 run: how busy the workers were, and the idle tail of
    // the least busy one.
    let busy_of = |rep: &Rep| {
        let mut busy = vec![0.0f64; par];
        for t in &rep.run.task_stats {
            busy[t.worker.unwrap_or(0)] += t.wall.as_secs_f64();
        }
        busy
    };
    let run_walls = durations_where(
        &report,
        "bench.cluster.run_cluster_with",
        &[("workers", par), ("threads", 1)],
    );
    let busy_frac: Vec<f64> = across
        .iter()
        .zip(&run_walls)
        .map(|(r, wall)| busy_of(r).iter().sum::<f64>() / (par as f64 * wall))
        .collect();
    let idle_tail: Vec<f64> = across
        .iter()
        .zip(&run_walls)
        .map(|(r, wall)| wall - busy_of(r).iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let task_walls: Vec<f64> = across.iter().flat_map(task_walls_ms).collect();
    let attempts: Vec<f64> =
        across.iter().flat_map(|r| r.run.task_stats.iter().map(|t| t.attempts as f64)).collect();

    let mt = &mut out.metrics;
    mt.set("cluster.scaling_eff_2w", t11 / (par as f64 * t21), LAYER_REPS);
    mt.set("cluster.scaling_eff_2t", t11 / (par as f64 * t12), LAYER_REPS);
    mt.set("cluster.worker_busy_frac", median(&busy_frac), busy_frac.len());
    mt.set("cluster.idle_tail_s", median(&idle_tail), idle_tail.len());
    mt.set("cluster.task_wall_ms_p50", median(&task_walls), task_walls.len());
    mt.set("cluster.tasks_dispatched", (dispatched / runs) as f64, runs as usize);
    mt.set(
        "cluster.attempts_per_task",
        attempts.iter().sum::<f64>() / attempts.len() as f64,
        attempts.len(),
    );

    let tasks_run = report.counter("pool.tasks.run");
    mt.set("pool.tasks_run", tasks_run as f64, 1);
    mt.set("pool.steal_frac", report.counter("pool.steals") as f64 / tasks_run.max(1) as f64, 1);
    mt.set("pool.parks", report.counter("pool.idle.parks") as f64, 1);
    mt.set(
        "svm.smo_iterations",
        iterations as f64 / runs as f64 / cfg.n_voxels as f64,
        runs as usize,
    );
    let select = durations(&report, "bench.core.select_top_k");
    mt.set("core.select_ms", median(&select) * 1e3, select.len());
    mt.set("core.roi_recovery", reps[2][0].recovery, 1);

    let traced =
        durations_where(&report, "bench.harness.sweep_rep", &[("workers", par), ("threads", 1)]);
    mt.set("trace.overhead_frac", trace_overhead(&traced, &untraced), traced.len());
    out.note("parallel", par);
    out.report = Some(report);
}
