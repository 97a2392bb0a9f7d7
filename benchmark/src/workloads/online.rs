//! `online-session`: the paper's real-time mode (§5.2.2). One subject's
//! recording is replayed volume by volume through `OnlineSession`; the
//! feedback classifier is trained after 16 epochs and scores each of
//! the 16 later epochs as it completes. The same stage 1/2/3 code as
//! the task workloads, but at M = 16 epochs FLOPs are negligible and
//! per-call overhead, allocation, snapshot transposition and the kernel
//! rebuild dominate: a latency user, not a throughput user.

use crate::host::{peak_rss_mb, run_probes};
use crate::layers::{call, durations};
use crate::run::{Env, Outcome, TempDir};
use crate::stats::{lower_decile, median, mix, percentile, repeat_for, time};
use crate::workloads::{executor, trace_overhead};
use fcma_core::analysis::stratified_folds;
use fcma_core::{
    online_voxel_selection, recovery_rate, score_all_voxels, AnalysisConfig, FeedbackModel,
    OnlineSession, SessionConfig, TaskContext,
};
use fcma_fmri::io::{load_dataset, save_dataset};
use fcma_fmri::{Condition, Dataset, SynthConfig};
use std::path::Path;

/// Epochs ingested before `train_feedback`; the rest are scored live.
const TRAIN_EPOCHS: usize = 16;
const TOTAL_EPOCHS: usize = 32;
/// Sessions the untraced loop never goes below.
const MIN_SESSIONS: usize = 4;
/// Traced sessions (each beside an untraced one).
const LAYER_SESSIONS: usize = 4;
const TOP_K: usize = 16;
const TASK_SIZE: usize = 64;
const FOLDS: usize = 4;
/// Floors over all sessions of a run: the share of scored epochs whose
/// decision sign matches the label, and the share of the 16 selected
/// voxels that are planted. With only 16 training epochs the signal is
/// planted strongly (N/16 voxels at coupling 2.0); every seed tried
/// scored 1.0 on both.
const ACCURACY_FLOOR: f64 = 0.75;
const ROI_FLOOR: f64 = 0.5;

pub struct OnlineShape {
    synth: SynthConfig,
}

pub fn shape(smoke: bool) -> OnlineShape {
    let n_voxels = if smoke { 256 } else { 2048 };
    let synth = SynthConfig {
        n_voxels,
        n_subjects: 1,
        epochs_per_subject: TOTAL_EPOCHS,
        epoch_len: 12,
        gap: 0,
        n_informative: n_voxels / 16,
        coupling: 2.0,
        ..SynthConfig::default()
    };
    OnlineShape { synth }
}

impl OnlineShape {
    /// The recording of session `index` (0 is the discarded warm-up).
    pub fn synth(&self, seed: u64, index: usize) -> SynthConfig {
        SynthConfig { seed: mix(seed, 1000 + index as u64), ..self.synth.clone() }
    }
}

fn session_config() -> SessionConfig {
    SessionConfig { top_k: TOP_K, n_folds: FOLDS, task_size: TASK_SIZE, ..Default::default() }
}

/// One epoch as the scanner would deliver it.
struct Epoch {
    label: Condition,
    volumes: Vec<Vec<f32>>,
}

/// The recording cut into epochs, conditions alternating, so that every
/// prefix the session trains on holds both in equal numbers.
fn scanner_feed(dataset: &Dataset) -> Vec<Epoch> {
    let of = |c: Condition| dataset.epochs().iter().filter(move |e| e.label == c);
    of(Condition::A)
        .zip(of(Condition::B))
        .flat_map(|(a, b)| [a, b])
        .map(|ep| Epoch {
            label: ep.label,
            volumes: (ep.start..ep.start + ep.len)
                .map(|t| (0..dataset.n_voxels()).map(|v| dataset.data().get(v, t)).collect())
                .collect(),
        })
        .collect()
}

fn ingest(session: &mut OnlineSession, epoch: &Epoch) {
    session.begin_epoch(epoch.label).expect("no epoch is open");
    for volume in &epoch.volumes {
        session.push_volume(volume).expect("volume has the session's voxel count");
    }
    session.end_epoch().expect("epoch is complete");
}

/// Timings and outcomes gathered over the sessions of a run.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    startup: Vec<f64>,
    train: Vec<f64>,
    pooled_select: Vec<f64>,
    /// One per session: the median of its 16 `score_epoch` calls,
    /// whose cost grows with the epochs seen.
    feedback_ms: Vec<f64>,
    /// `VmHWM` after the first session.
    peak_rss: Option<f64>,
    recovery: Vec<f64>,
    scored: usize,
    right: usize,
}

/// One closed-loop session on the recording derived from `index`.
/// Returns the session (all epochs ingested) and its feedback model.
fn session(
    env: &Env<'_>,
    shape: &OnlineShape,
    index: usize,
    stem: &Path,
    s: &mut Samples,
    out: &mut Outcome,
) -> (OnlineSession, FeedbackModel) {
    let cfg = shape.synth(env.params.seed, index);
    let (planted, setup) = time(|| {
        let (dataset, truth) = cfg.generate();
        save_dataset(stem, &dataset).expect("save synthetic recording");
        truth.informative
    });
    s.setup.push(setup);

    // Start-up: the recording from disk, then the training epochs in.
    let (dataset, load) = call("bench.fmri.load_dataset", || load_dataset(stem));
    let feed = scanner_feed(&dataset.expect("load the recording the set-up saved"));
    let mut live = OnlineSession::new(session_config(), cfg.n_voxels);
    let ((), ingest_s) = call("bench.core.ingest_training", || {
        feed[..TRAIN_EPOCHS].iter().for_each(|e| ingest(&mut live, e));
    });
    s.startup.push(load + ingest_s);

    let (fb, train) = call("bench.core.train_feedback", || live.train_feedback());
    let fb = fb.expect("16 balanced epochs are enough to train");
    s.train.push(train);
    // With more planted voxels than are selected, the measure is the
    // share of the selection that is planted.
    s.recovery.push(recovery_rate(&planted, &fb.selected));

    // The same voxel selection on the 2-thread kernel pool.
    let snapshot = live.dataset().expect("snapshot of 16 epochs");
    let pooled = executor(env.parallel());
    let analysis = AnalysisConfig { task_size: TASK_SIZE, top_k: TOP_K };
    let (selection, secs) = call("bench.core.online_voxel_selection", || {
        online_voxel_selection(&snapshot, &pooled, &analysis, FOLDS)
    });
    s.pooled_select.push(secs);
    out.checks.check(selection.selected == fb.selected, || {
        format!("session {index}: pooled selection differs from train_feedback's (§15)")
    });
    out.checks.accuracies("online selection", selection.scores.iter().map(|v| v.accuracy));

    let mut feedback_ms = Vec::new();
    for (e, epoch) in feed.iter().enumerate().skip(TRAIN_EPOCHS) {
        ingest(&mut live, epoch);
        let (decision, secs) = call("bench.core.score_epoch", || live.score_epoch(&fb, e));
        let decision = decision.expect("epoch was just completed");
        feedback_ms.push(secs * 1e3);
        s.scored += 1;
        s.right += usize::from(decision.is_finite() && decision.signum() == epoch.label.sign());
        out.checks.check(decision.is_finite(), || format!("session {index} epoch {e}: {decision}"));
    }
    s.feedback_ms.push(median(&feedback_ms));
    s.peak_rss.get_or_insert_with(peak_rss_mb);
    (live, fb)
}

/// The floors hold over the run's sessions taken together.
fn check_quality(s: &Samples, out: &mut Outcome) -> (f64, f64) {
    let accuracy = s.right as f64 / s.scored as f64;
    let recovery = s.recovery.iter().sum::<f64>() / s.recovery.len() as f64;
    out.checks.check(accuracy >= ACCURACY_FLOOR, || {
        format!("feedback_accuracy {accuracy} below the floor {ACCURACY_FLOOR}")
    });
    out.checks.check(recovery >= ROI_FLOOR, || {
        format!("mean roi_recovery {recovery} below the floor {ROI_FLOOR}")
    });
    (accuracy, recovery)
}

fn note(shape: &OnlineShape, out: &mut Outcome) {
    out.note("n_voxels", shape.synth.n_voxels);
    out.note("train_epochs", TRAIN_EPOCHS);
    out.note("scored_epochs", TOTAL_EPOCHS - TRAIN_EPOCHS);
}

pub fn run_e2e(env: &Env<'_>, shape: &OnlineShape, out: &mut Outcome) {
    let tmp = TempDir::new(env.params);
    let stem = tmp.path().join("recording");
    note(shape, out);

    let mut s = Samples::default();
    // Session 0 is the discarded warm-up.
    session(env, shape, 0, &stem, &mut Samples::default(), out);
    let min = if env.params.smoke { 2 } else { MIN_SESSIONS };
    repeat_for(env.params.seconds, min, |i| {
        session(env, shape, i + 1, &stem, &mut s, out);
    });
    let (accuracy, recovery) = check_quality(&s, out);

    let n = shape.synth.n_voxels as f64;
    let m = &mut out.metrics;
    m.set("setup_s", lower_decile(&s.setup), s.setup.len());
    m.set("startup_s", lower_decile(&s.startup), s.startup.len());
    m.set("voxels_per_s", n / lower_decile(&s.train), s.train.len());
    m.set("voxels_per_s_pooled", n / lower_decile(&s.pooled_select), s.pooled_select.len());
    m.set("response_ms", lower_decile(&s.feedback_ms), s.feedback_ms.len());
    m.set("peak_rss_mb", s.peak_rss.expect("a session ran"), 1);
    out.note("sessions", s.train.len());
    out.note("feedback_accuracy", accuracy);
    out.note("roi_recovery", recovery);
    out.note("pool_threads", env.parallel());
}

pub fn run_traced(env: &Env<'_>, shape: &OnlineShape, out: &mut Outcome) {
    let tmp = TempDir::new(env.params);
    let stem = tmp.path().join("recording");
    note(shape, out);
    out.probes = Some(run_probes(env.host));

    // Each traced session has an untraced one on the same recording,
    // the collector uninstalled, next to it, before it and after it in
    // turn, so trace.overhead_frac compares neighbours in time and the
    // second of a pair being the warmer cancels (session 0 is the
    // discarded warm-up).
    let mut untraced = Samples::default();
    session(env, shape, 0, &stem, &mut Samples::default(), out);
    let collector = fcma_trace::Collector::new();
    let mut s = Samples::default();
    let serial = executor(1);
    for i in 0..LAYER_SESSIONS {
        let traced_first = i % 2 == 1;
        if !traced_first {
            session(env, shape, i + 1, &stem, &mut untraced, out);
        }
        let (live, _) = {
            let _scope = collector.install_scoped();
            call("bench.harness.session", || session(env, shape, i + 1, &stem, &mut s, out)).0
        };
        if traced_first {
            session(env, shape, i + 1, &stem, &mut untraced, out);
        }
        let _scope = collector.install_scoped();
        // What train_feedback and score_epoch are made of: the snapshot
        // transposition, and voxel selection over the snapshot.
        for _ in 0..3 {
            drop(call("bench.core.session_dataset", || live.dataset()));
        }
        let snapshot = live.dataset().expect("snapshot of all epochs");
        let train: Vec<usize> = (0..TRAIN_EPOCHS).collect();
        let ctx = TaskContext::subset(&snapshot, &train);
        let groups = stratified_folds(&ctx.y, FOLDS);
        call("bench.core.score_all_voxels", || {
            score_all_voxels(&ctx, &serial, TASK_SIZE, Some(&groups))
        });
    }
    let report = collector.drain();
    let (accuracy, recovery) = check_quality(&s, out);

    let med = |name: &str| median(&durations(&report, name));
    let feedback: Vec<f64> =
        durations(&report, "bench.core.score_epoch").iter().map(|s| s * 1e3).collect();
    let train = med("bench.core.train_feedback");
    let mt = &mut out.metrics;
    mt.set("core.online_train_s", train, LAYER_SESSIONS);
    mt.set("core.online_select_s", med("bench.core.score_all_voxels"), LAYER_SESSIONS);
    mt.set("core.session_snapshot_ms", med("bench.core.session_dataset") * 1e3, 3 * LAYER_SESSIONS);
    // 32 samples: three beyond the 90th percentile, so informational.
    mt.set("core.feedback_ms_p90", percentile(&feedback, 90.0), feedback.len());
    mt.set("core.feedback_accuracy", accuracy, s.scored);
    mt.set("core.roi_recovery", recovery, s.recovery.len());
    let traced = durations(&report, "bench.core.train_feedback");
    mt.set("trace.overhead_frac", trace_overhead(&traced, &untraced.train), traced.len());
    out.note("pool_threads", env.parallel());
    out.report = Some(report);
}
