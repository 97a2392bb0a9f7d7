//! `task-facescene` and `task-attention`: one voxel task, the paper's
//! unit of work (Table 1), through `OptimizedExecutor::process`.
//!
//! The two share this code and differ only in shape. Face-scene is wide
//! (N = 34,470, 216 epochs): the tall-skinny GEMM and the panel SYRK
//! stream per-voxel matrices that overflow L2, so `fcma-linalg` does
//! most of the work. Attention is narrow and long (N = 4,096, 540
//! epochs, 30 LOSO folds of 522 samples): SMO dominates.

use crate::host::{peak_rss_mb, run_probes};
use crate::layers::{call, durations};
use crate::run::{score_bits, Env, Outcome, TempDir};
use crate::stats::{lower_decile, median, mix, repeat_for, time};
use crate::workloads::{executor, host_machine, start_up, trace_overhead};
use fcma_core::{
    corr_normalized_merged, corr_optimized, normalize_separated, score_task, BaselineExecutor,
    KernelPrecompute, OptimizedExecutor, TaskContext, TaskExecutor, VoxelTask,
};
use fcma_fmri::io::{load_dataset, save_dataset};
use fcma_fmri::{presets, Dataset, NormalizedEpochs, SynthConfig};
use fcma_linalg::microkernel::microkernel;
use fcma_linalg::tall_skinny::{EpochPair, TallSkinnyOpts};
use fcma_linalg::{
    corr_tall_skinny, gemm_blocked, syrk_dot, syrk_panel_scratch, Mat, SyrkScratch, PANEL_K,
};
use fcma_sim::{CorrShape, SyrkShape, TimeModel};
use fcma_svm::{loso_cross_validate, KernelMatrix, LibSvmParams, SmoParams, SolverKind};
use fcma_sync::pool::Pool;
use std::hint::black_box;
use std::path::Path;

/// Timed reps of `voxels_per_s` never go below this.
const MIN_REPS: usize = 10;
/// Traced reps of the task (executor, then stage by stage), each after
/// an untraced executor call.
const TASK_REPS: usize = 5;
/// Reps of each other traced layer call.
const LAYER_REPS: usize = 3;
/// Mean LOSO accuracy the task's (planted) voxels must reach; seeds
/// 1-12 gave 0.93-0.97 on face-scene and 0.94-0.97 on attention.
const ACCURACY_FLOOR: f64 = 0.8;

/// Voxels of the one task (paper: 120; here one per kernel thread of the
/// pooled configuration). Cut so that many reps fit a run; N and the
/// epoch structure are the paper's.
const TASK_VOXELS: usize = 2;
/// The task of the warm-up rep and of the traced run.
const TASK: VoxelTask = VoxelTask { start: 0, count: TASK_VOXELS };

pub struct TaskShape {
    synth: SynthConfig,
    /// Synthesising 34,470 voxels is itself 6 s of work, so face-scene
    /// sets up once per run; attention twice.
    setup_reps: usize,
    /// A warm start-up pass (1.6 s on face-scene, 0.5 s on attention)
    /// opens every so many reps of the measuring loop.
    startup_every: usize,
}

pub fn shape(workload: &str, smoke: bool) -> TaskShape {
    let (mut synth, setup_reps, startup_every) = match (workload, smoke) {
        ("task-facescene", false) => (presets::face_scene_scaled(34_470), 1, 3),
        ("task-attention", false) => (presets::attention_scaled(4_096), 2, 1),
        ("task-facescene", true) => (presets::face_scene_scaled(768), 2, 3),
        _ => (presets::attention_scaled(256), 2, 1),
    };
    if smoke {
        synth.n_subjects = 6;
        synth.epochs_per_subject = 6;
        synth.n_informative = 16;
        synth.coupling = 1.5;
    }
    TaskShape { synth, setup_reps, startup_every }
}

impl TaskShape {
    pub fn synth(&self, seed: u64) -> SynthConfig {
        SynthConfig { seed: mix(seed, self.synth.seed), ..self.synth.clone() }
    }

    fn note(&self, out: &mut Outcome) {
        out.note("n_voxels", self.synth.n_voxels);
        out.note("n_epochs", self.synth.n_epochs());
        out.note("epoch_len", self.synth.epoch_len);
        out.note("task_voxels", TASK_VOXELS);
    }
}

/// The benchmark's own preparation: synthesise the dataset, move the
/// planted network to the head of the voxel order, and save it.
///
/// The one task covers voxels `0..V`, so it scores planted voxels. On
/// those SMO converges in a number of iterations that barely depends
/// on the seed (+-4 %); on noise voxels it varies by +-13 %, which at
/// V <= 4 would make `voxels_per_s` a property of the seed.
fn set_up(cfg: &SynthConfig, stem: &Path) {
    let (dataset, truth) = cfg.generate();
    let (data, epochs) = dataset.into_parts();
    let noise = (0..data.rows()).filter(|&v| !truth.is_informative(v));
    let mut ordered = Mat::zeros(data.rows(), data.cols());
    for (row, v) in truth.informative.iter().copied().chain(noise).enumerate() {
        ordered.row_mut(row).copy_from_slice(data.row(v));
    }
    drop(data);
    let dataset = Dataset::new(ordered, epochs).expect("reordering voxels keeps the dataset valid");
    save_dataset(stem, &dataset).expect("save synthetic dataset");
}

/// The traced run's reference scores, which every later call on the
/// same task must match bit for bit, checked here for range and for
/// finding the planted signal.
fn reference_scores(
    ctx: &TaskContext,
    serial: &OptimizedExecutor,
    task: VoxelTask,
    out: &mut Outcome,
) -> Vec<(usize, u64)> {
    let scores = serial.process(ctx, task);
    out.checks.accuracies("task scores", scores.iter().map(|s| s.accuracy));
    let mean = scores.iter().map(|s| s.accuracy).sum::<f64>() / scores.len() as f64;
    out.checks.check(mean >= ACCURACY_FLOOR, || {
        format!("mean accuracy {mean} of the planted voxels below the floor {ACCURACY_FLOOR}")
    });
    out.note("mean_accuracy", mean);
    score_bits(&scores)
}

pub fn run_e2e(env: &Env<'_>, shape: &TaskShape, out: &mut Outcome) {
    let tmp = TempDir::new(env.params);
    let stem = tmp.path().join("ds");
    let cfg = shape.synth(env.params.seed);
    shape.note(out);

    let setup: Vec<f64> = (0..shape.setup_reps).map(|_| time(|| set_up(&cfg, &stem)).1).collect();

    // One discarded cold pass (first touch of fresh memory is erratic
    // on a VM) and one discarded pair of task calls.
    let serial = executor(1);
    let pooled = executor(env.parallel());
    let mut ctx = Some(start_up(&stem));
    for exec in [&serial, &pooled] {
        drop(exec.process(ctx.as_ref().expect("just built"), TASK));
    }
    let groups = (cfg.n_informative / TASK_VOXELS).max(1);

    // The loop: every `startup_every`-th rep starts up again (the old
    // context dropped first, so the peak stays one dataset plus one
    // context), which spreads the start-up samples over the whole run;
    // every rep scores another group of planted voxels, so the seed's
    // luck with any one of them does not set the result.
    let mut startup = Vec::new();
    let mut serial_s = Vec::new();
    let mut pooled_s = Vec::new();
    let mut peak_rss = None;
    let mut accuracies = Vec::new();
    let min_reps = if env.params.smoke { 3 } else { MIN_REPS };
    repeat_for(env.params.seconds, min_reps, |rep| {
        if rep % shape.startup_every == 0 {
            drop(ctx.take());
            let (fresh, secs) = time(|| start_up(&stem));
            startup.push(secs);
            ctx = Some(fresh);
        }
        let ctx = ctx.as_ref().expect("a context is always in place");
        let task = VoxelTask { start: (rep + 1) % groups * TASK_VOXELS, ..TASK };
        let (scores, secs) = call("bench.core.process", || serial.process(ctx, task));
        serial_s.push(secs);
        let (again, secs) = call("bench.core.process_pooled", || pooled.process(ctx, task));
        pooled_s.push(secs);
        peak_rss.get_or_insert_with(peak_rss_mb);
        out.checks.check(score_bits(&again) == score_bits(&scores), || {
            format!("rep {rep}: pooled scores differ from serial (§15 bit identity)")
        });
        accuracies.extend(scores.iter().map(|s| s.accuracy));
    });
    out.checks.accuracies("task scores", accuracies.iter().copied());
    let mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    out.checks.check(mean >= ACCURACY_FLOOR, || {
        format!("mean accuracy {mean} over all reps below the floor {ACCURACY_FLOOR}")
    });
    out.note("mean_accuracy", mean);

    let v = TASK_VOXELS as f64;
    let serial_wall = lower_decile(&serial_s);
    let m = &mut out.metrics;
    m.set("setup_s", lower_decile(&setup), setup.len());
    m.set("startup_s", lower_decile(&startup), startup.len());
    m.set("voxels_per_s", v / serial_wall, serial_s.len());
    // Capped at the 1-thread figure. A pool forks its workers anew in
    // every region, and whether a forked worker reaches the second core
    // within a 0.4 s call is up to the host: on the reference VM it does
    // for minutes on end (1.3 x on face-scene, 1.8 x on attention) and
    // then for minutes it does not (1.0 x), which no statistic of one
    // run can steady. What a task workload can hold a change to is that
    // handing the task to a 2-thread pool costs nothing; the speed-up
    // is the per-layer pool.task_speedup_2t.
    let pooled_wall = lower_decile(&pooled_s).max(serial_wall);
    m.set("voxels_per_s_pooled", v / pooled_wall, pooled_s.len());
    m.set("response_ms", serial_wall * 1e3, serial_s.len());
    m.set("peak_rss_mb", peak_rss.expect("the loop ran"), 1);
    out.note("pool_threads", env.parallel());
}

pub fn run_traced(env: &Env<'_>, shape: &TaskShape, out: &mut Outcome) {
    let tmp = TempDir::new(env.params);
    let stem = tmp.path().join("ds");
    let cfg = shape.synth(env.params.seed);
    let task = TASK;
    shape.note(out);
    set_up(&cfg, &stem);

    let probes = run_probes(env.host);
    out.probes = Some(probes);
    let mach = host_machine(env.host, &probes);

    // The cold start-up pass is the informational fmri.cold_startup_s.
    let (ctx, cold_startup) = time(|| start_up(&stem));
    let serial = executor(1);
    let pooled = executor(env.parallel());
    let reference = reference_scores(&ctx, &serial, task, out);

    let (v, n, m_ep) = (task.count, ctx.n_voxels(), ctx.n_epochs());
    let k = cfg.epoch_len;
    let opts = TallSkinnyOpts::default();
    let solver = SolverKind::PhiSvm(SmoParams::default());
    let one = Pool::new(1);

    let collector = fcma_trace::Collector::new();

    // fcma-core / fcma-svm: the executor, then the same task stage by
    // stage (bench.harness.* spans are the benchmark's own roots, not
    // product functions), then score_task on the same buffer. In each
    // rep an untraced executor call, the collector uninstalled, sits
    // next to the traced one, before it and after it in turn: the host
    // has slow spells that last seconds, so trace.overhead_frac
    // compares neighbours in time, and the second of a pair being the
    // warmer cancels.
    let mut iterations = Vec::new();
    let mut untraced = Vec::new();
    for rep in 0..TASK_REPS {
        let traced_first = rep % 2 == 1;
        if !traced_first {
            untraced.push(time(|| serial.process(&ctx, task)).1);
        }
        let scores = {
            let _scope = collector.install_scoped();
            call("bench.core.process", || serial.process(&ctx, task)).0
        };
        if traced_first {
            untraced.push(time(|| serial.process(&ctx, task)).1);
        }
        let _scope = collector.install_scoped();
        out.checks.check(score_bits(&scores) == reference, || {
            format!("traced rep {rep}: scores differ from the untraced pass")
        });
        let corr = call("bench.harness.task_by_stage", || {
            let corr = call("bench.core.corr_normalized_merged", || {
                corr_normalized_merged(&ctx, task, opts)
            })
            .0;
            let mut scratch = SyrkScratch::new(m_ep, PANEL_K);
            let mut iters = 0;
            for (vi, &(_, expected)) in reference.iter().enumerate() {
                let kernel = call("bench.svm.precompute_raw_with", || {
                    KernelMatrix::precompute_raw_with(m_ep, n, corr.voxel_matrix(vi), &mut scratch)
                })
                .0;
                let cv = call("bench.svm.loso_cross_validate", || {
                    loso_cross_validate(&kernel, &ctx.y, &ctx.subjects, &solver)
                })
                .0;
                iters += cv.total_iterations;
                out.checks.check(cv.accuracy.to_bits() == expected, || {
                    format!("voxel {vi}: staged accuracy differs from the executor's")
                });
            }
            iterations.push(iters);
            corr
        })
        .0;
        let staged = call("bench.core.score_task", || {
            score_task(
                &corr,
                task,
                &ctx.y,
                &ctx.subjects,
                &solver,
                KernelPrecompute::Optimized,
                &one,
            )
        })
        .0;
        out.checks.check(score_bits(&staged) == reference, || {
            format!("rep {rep}: score_task differs from the executor")
        });
    }
    out.checks.check(iterations.windows(2).all(|w| w[0] == w[1]), || {
        format!("svm.smo_iterations differ across reps: {iterations:?}")
    });
    let scope = collector.install_scoped();

    // fcma-fmri: load, epoch normalisation, block extraction. Once: a
    // face-scene load allocates ~1 GB of fresh memory.
    {
        let dataset =
            call("bench.fmri.load_dataset", || load_dataset(&stem)).0.expect("load dataset");
        let norm =
            call("bench.fmri.normalized_epochs", || NormalizedEpochs::from_dataset(&dataset)).0;
        for _ in 0..LAYER_REPS {
            black_box(call("bench.fmri.assigned_blocks", || norm.assigned_blocks(task.range())));
        }
    }

    // fcma-linalg at the task's shapes: tall-skinny vs generic GEMM per
    // epoch, panel vs dot SYRK on one voxel's M x N matrix.
    let assigned = ctx.norm.assigned_blocks(task.range());
    let pairs: Vec<EpochPair<'_>> = assigned
        .iter()
        .enumerate()
        .map(|(e, a)| EpochPair { assigned: a, brain: ctx.norm.brain(e) })
        .collect();
    let mut buf = vec![0.0f32; v * m_ep * n];
    for _ in 0..LAYER_REPS {
        call("bench.linalg.corr_tall_skinny", || corr_tall_skinny(&pairs, &mut buf, opts));
    }
    for _ in 0..LAYER_REPS.min(2) {
        call("bench.linalg.gemm_blocked_epochs", || {
            for (e, p) in pairs.iter().enumerate() {
                let (a, b) = (p.assigned.as_slice(), p.brain.as_slice());
                gemm_blocked(v, n, k, a, k, b, n, &mut buf[e * n..], m_ep * n);
            }
        });
    }
    drop(buf);
    let corr = corr_normalized_merged(&ctx, task, opts);
    let data = corr.voxel_matrix(0);
    let mut gram = vec![0.0f32; m_ep * m_ep];
    let mut scratch = SyrkScratch::new(m_ep, PANEL_K);
    for _ in 0..LAYER_REPS {
        call("bench.linalg.syrk_panel_scratch", || {
            syrk_panel_scratch(m_ep, n, data, n, &mut gram, m_ep, &mut scratch);
        });
    }
    for _ in 0..LAYER_REPS.min(2) {
        call("bench.linalg.syrk_dot", || syrk_dot(m_ep, n, data, n, &mut gram, m_ep));
    }
    let micro_flops = microkernel_probe();

    // PhiSVM vs the LibSVM replica on voxel 0's kernel.
    let kernel = KernelMatrix::precompute_raw_with(m_ep, n, data, &mut scratch);
    drop(corr);
    call("bench.svm.loso_cross_validate_phisvm", || {
        loso_cross_validate(&kernel, &ctx.y, &ctx.subjects, &solver)
    });
    call("bench.svm.loso_cross_validate_libsvm", || {
        let libsvm = SolverKind::LibSvm(LibSvmParams::default());
        loso_cross_validate(&kernel, &ctx.y, &ctx.subjects, &libsvm)
    });

    // Separated stage 1 then stage 2 (ROADMAP item 2's criterion);
    // corr_optimized is also what bridges the fcma-sim stage-1 counters.
    for _ in 0..LAYER_REPS {
        let mut c = call("bench.core.corr_optimized", || corr_optimized(&ctx, task, opts)).0;
        call("bench.core.normalize_separated", || normalize_separated(&mut c, &ctx));
    }

    // fcma-sync: an empty fork-join region, and the task on two threads.
    const REGIONS: usize = 200;
    let threads = env.host.nproc;
    let region_pool = Pool::new(threads);
    call("bench.sync.pool_run_empty", || {
        for _ in 0..REGIONS {
            black_box(region_pool.run(vec![(); threads], |i, ()| i));
        }
    });
    for rep in 0..LAYER_REPS {
        let scores = call("bench.core.process_pooled", || pooled.process(&ctx, task)).0;
        out.checks.check(score_bits(&scores) == reference, || {
            format!("pooled rep {rep}: scores differ from serial (§15 bit identity)")
        });
    }

    drop(scope);
    let report = collector.drain();
    let stage1_flops = report.counter("stage1.flops") / LAYER_REPS as u64;
    let stage1_mem_refs = report.counter("stage1.mem_refs") / LAYER_REPS as u64;

    // Baseline vs optimized executor on two voxels, timed with the
    // collector uninstalled: the baseline bridges the MKL-like model
    // into the same stage1.* counter names as corr_optimized above.
    let two = VoxelTask { start: 0, count: v.min(2) };
    let baseline = BaselineExecutor { pool: one, ..Default::default() };
    let baseline_s = time(|| baseline.process(&ctx, two)).1;
    let optimized_s = time(|| serial.process(&ctx, two)).1;

    // ---- derive the metrics from the bench spans ----
    let med = |name: &str| median(&durations(&report, name));
    let cnt = |name: &str| durations(&report, name).len();
    let mt = &mut out.metrics;
    mt.set("fmri.cold_startup_s", cold_startup, 1);

    let file_bytes = (n * cfg.n_timepoints() * 4) as f64;
    let epoch_bytes = (m_ep * k * n * 4) as f64;
    let load = med("bench.fmri.load_dataset");
    let norm = med("bench.fmri.normalized_epochs");
    mt.set("fmri.load_s", load, cnt("bench.fmri.load_dataset"));
    mt.set("fmri.load_gbs", file_bytes / load / 1e9, cnt("bench.fmri.load_dataset"));
    mt.set("fmri.normalize_epochs_s", norm, cnt("bench.fmri.normalized_epochs"));
    // computed bytes: every epoch window read once, written once
    mt.set(
        "fmri.normalize_epochs_gbs",
        2.0 * epoch_bytes / norm / 1e9,
        cnt("bench.fmri.normalized_epochs"),
    );
    mt.set(
        "fmri.assigned_blocks_ms",
        med("bench.fmri.assigned_blocks") * 1e3,
        cnt("bench.fmri.assigned_blocks"),
    );

    let roofline =
        |flops: f64, bytes: f64| probes.peak_gflops.min(probes.triad_gbs * flops / bytes);
    let corr_shape = CorrShape { v: v as u64, n: n as u64, m: m_ep as u64, k: k as u64 };
    let corr_bytes = (v * m_ep * n * 4) as f64;
    let ts = med("bench.linalg.corr_tall_skinny");
    let ts_gflops = corr_shape.flops() as f64 / ts / 1e9;
    let reps = cnt("bench.linalg.corr_tall_skinny");
    mt.set("linalg.microkernel_gflops", micro_flops / med("bench.linalg.microkernel") / 1e9, 1);
    mt.set("linalg.gemm_ts_ms", ts * 1e3, reps);
    mt.set("linalg.gemm_ts_gflops", ts_gflops, reps);
    // computed bytes: brain epochs read once, correlation rows written once
    mt.set(
        "linalg.gemm_ts_frac_roofline",
        ts_gflops / roofline(corr_shape.flops() as f64, epoch_bytes + corr_bytes),
        reps,
    );
    mt.set(
        "linalg.ts_vs_generic",
        med("bench.linalg.gemm_blocked_epochs") / ts,
        cnt("bench.linalg.gemm_blocked_epochs"),
    );
    let syrk_shape = SyrkShape { m: m_ep as u64, n: n as u64, voxels: 1 };
    let syrk = med("bench.linalg.syrk_panel_scratch");
    let syrk_gflops = syrk_shape.flops() as f64 / syrk / 1e9;
    let reps = cnt("bench.linalg.syrk_panel_scratch");
    mt.set("linalg.syrk_panel_ms", syrk * 1e3, reps);
    mt.set("linalg.syrk_panel_gflops", syrk_gflops, reps);
    // computed bytes: the M x N matrix read once, the Gram matrix written once
    let syrk_bytes = ((m_ep * n + m_ep * m_ep) * 4) as f64;
    mt.set(
        "linalg.syrk_frac_roofline",
        syrk_gflops / roofline(syrk_shape.flops() as f64, syrk_bytes),
        reps,
    );
    mt.set(
        "linalg.syrk_panel_vs_dot",
        med("bench.linalg.syrk_dot") / syrk,
        cnt("bench.linalg.syrk_dot"),
    );

    let process = med("bench.core.process");
    let stage12 = med("bench.core.corr_normalized_merged");
    let stage3 = med("bench.core.score_task");
    let pre = durations(&report, "bench.svm.precompute_raw_with");
    let cv = durations(&report, "bench.svm.loso_cross_validate");
    let cv_task = median(&cv) * v as f64;
    let separated = med("bench.core.corr_optimized") + med("bench.core.normalize_separated");
    mt.set("core.stage12_ms", stage12 * 1e3, cnt("bench.core.corr_normalized_merged"));
    mt.set("core.stage12_share", stage12 / (stage12 + stage3), TASK_REPS);
    mt.set("core.merged_vs_separated", separated / stage12, LAYER_REPS);
    // computed bytes: Fisher pass and z-apply pass each read and write the buffer
    mt.set(
        "core.stage2_norm_gbs",
        4.0 * corr_bytes / med("bench.core.normalize_separated") / 1e9,
        cnt("bench.core.normalize_separated"),
    );
    mt.set("core.stage3_ms", stage3 * 1e3, cnt("bench.core.score_task"));
    mt.set("core.stage3_share", stage3 / (stage12 + stage3), TASK_REPS);
    // Paired per rep: the executor call and its staged twin are
    // neighbours in time.
    let overhead: Vec<f64> = durations(&report, "bench.core.process")
        .iter()
        .zip(durations(&report, "bench.core.corr_normalized_merged"))
        .zip(pre.chunks(v).zip(cv.chunks(v)))
        .map(|((a, s12), (p, c))| a - s12 - p.iter().sum::<f64>() - c.iter().sum::<f64>())
        .collect();
    mt.set("core.task_overhead_ms", median(&overhead) * 1e3, overhead.len());
    mt.set("core.optimized_vs_baseline", baseline_s / optimized_s, 1);

    let iters = iterations[0] as f64;
    mt.set("svm.precompute_ms", median(&pre) * 1e3, pre.len());
    mt.set("svm.cv_ms", median(&cv) * 1e3, cv.len());
    mt.set("svm.cv_share", cv_task / process, cv.len());
    mt.set("svm.smo_iterations", iters / v as f64, iterations.len());
    mt.set("svm.smo_ns_per_iter", cv_task * 1e9 / iters, cv.len());
    mt.set(
        "svm.phisvm_vs_libsvm",
        med("bench.svm.loso_cross_validate_libsvm") / med("bench.svm.loso_cross_validate_phisvm"),
        1,
    );

    let tasks_run = report.counter("pool.tasks.run");
    mt.set(
        "pool.region_overhead_us",
        med("bench.sync.pool_run_empty") / REGIONS as f64 * 1e6,
        REGIONS,
    );
    // fastest of each: whether a forked worker reaches the second core is up to the host (see run_e2e)
    mt.set(
        "pool.task_speedup_2t",
        lower_decile(&durations(&report, "bench.core.process"))
            / lower_decile(&durations(&report, "bench.core.process_pooled")),
        LAYER_REPS,
    );
    mt.set("pool.tasks_run", tasks_run as f64, 1);
    mt.set("pool.steal_frac", report.counter("pool.steals") as f64 / tasks_run.max(1) as f64, 1);
    mt.set("pool.parks", report.counter("pool.idle.parks") as f64, 1);

    let model_ms = TimeModel { cpi: 1.0 }
        .kernel_ms(&fcma_sim::analytic::corr_optimized(&corr_shape, &mach), &mach);
    mt.set("sim.stage1_flops", stage1_flops as f64, LAYER_REPS);
    mt.set("sim.stage1_mem_refs", stage1_mem_refs as f64, LAYER_REPS);
    mt.set(
        "sim.stage1_host_vs_model",
        med("bench.core.corr_optimized") * 1e3 / model_ms,
        LAYER_REPS,
    );

    let traced = durations(&report, "bench.core.process");
    mt.set("trace.overhead_frac", trace_overhead(&traced, &untraced), traced.len());
    out.note("pool_threads", env.parallel());
    out.report = Some(report);
}

/// `microkernel::<8, 16>` over packed panels that stay in L1 (24 KiB).
/// Returns the FLOPs done inside the `bench.linalg.microkernel` span.
fn microkernel_probe() -> f64 {
    const MR: usize = 8;
    const NR: usize = 16;
    const K: usize = 256;
    const CALLS: usize = 20_000;
    let a: Vec<f32> = (0..K * MR).map(|i| (i % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..K * NR).map(|i| (i % 5) as f32 * 0.25).collect();
    let mut c = vec![0.0f32; MR * NR];
    call("bench.linalg.microkernel", || {
        for _ in 0..CALLS {
            microkernel::<MR, NR>(K, black_box(&a), black_box(&b), &mut c, NR, false);
        }
        black_box(&mut c);
    });
    (2 * MR * NR * K * CALLS) as f64
}
